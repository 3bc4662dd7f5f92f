#!/bin/sh
# check.sh — the repo's CI gate, runnable locally.
#
#   ./scripts/check.sh
#
# Runs, in order:
#   1. go vet over every package, then gofmt: any file `gofmt -l`
#      lists fails the run
#   2. the test-name guard: every Test…/Fuzz… name given to a -run or
#      -fuzz flag in this script or in .github/workflows/ci.yml must
#      match a func in the tree (as -run does: the name or a prefix
#      of it) — `go test -run 'A|B'` passes silently when a name no
#      longer exists, so a renamed or deleted test would otherwise
#      drop out of its gate unnoticed
#   3. the full test suite
#   4. the race detector over the concurrency-sensitive packages
#      (internal/runner and internal/experiments, which fan seed
#      evaluations over a goroutine pool, internal/obs, whose
#      lock-free instruments are written and exposed concurrently,
#      internal/fault, whose schedules feed the parallel sweeps,
#      internal/engine, whose registry instruments and trace ring
#      are read from other goroutines while a batch runs (the
#      26-seed differential suite and the mid-event ring read run
#      under -race here),
#      internal/wal, the journal under every daemon mutation (it
#      has no background flusher: interval fsyncs ride on the next
#      append), cmd/assocd, whose HTTP daemon serves one engine
#      to many connections behind one mutex and reads /metrics and
#      the trace export outside it (the SIGKILL crash-recovery
#      differential suite runs under -race here), cmd/experiments,
#      whose netsim -runs batch fans seeds out over runner.Map, and
#      internal/stream and cmd/loadgen, whose stream client runs a
#      writer goroutine beside its frame reader
#   5. the promtext lint gate: the byte-format golden test for the
#      exposition writer plus the linter over the daemon's live
#      /metrics output
#   6. the coverage gate: internal/wlan and internal/geom must not
#      drop below their pre-sparse-core floors (the sparse spatial
#      core rewrote both packages; the gate keeps later PRs from
#      eroding the equivalence suite that pins it), internal/wal
#      must hold the floor set when the journal landed — durability
#      code that loses its tests loses its guarantees — and
#      internal/core must hold the floor set when multi-homing
#      landed (AugmentHomes' grandfather/fill passes are the
#      degradation semantics; untested means unspecified)
#   7. the allocation gate: the engine's steady-state incremental
#      event path must stay <= 2 allocs/event, both in ApplyStream
#      windows and in one-event Apply calls (both measure ~0; the
#      streaming ingest subsystem depends on this not rotting), and
#      one-event Apply calls with MaxHomes=2 over a trace with AP
#      failures <= 4 allocs/event (the incremental secondary-home
#      derivation runs after each), and the distributed BLA decision
#      (Distributed{Objective: ObjBLA}.Choose) at 0 allocs per call at
#      the paper's density (it sorts one stack-held vector per decision),
#      and the snapshot encoder: a geometric engine's binary snapshot
#      at <= 24 bytes per active user, and EncodeSnapshot's allocation
#      count the same at 500 and 2000 users (bytes and allocations,
#      unlike wall time, gate the same on every host), and the load
#      tracker's per-event operations (Move, AddHome/Disassociate,
#      LoadIfJoin, LoadIfLeave, ReplaceHomes) at 0 allocs per call on
#      a single-AP and a two-home tracker
#   8. the behaviour gate: the reduced figure tables (fig9a / 10a /
#      10b / 11, ext-churn, ext-fault, ext-multihome at -seeds 4
#      -size 0.1) byte for byte against results/behaviour-figs.csv,
#      the tie rules of every distributed objective, and the
#      exactness differentials of the batch solver — distributed
#      rounds that skip unchanged neighbourhoods against a plain
#      round robin, one reused SCG Solver against fresh GreedySCG
#      calls — so a change that moves any association fails here
#   9. the production-surface gate: every exported identifier under
#      internal/ has a reference from a non-test file (root module or
#      bench/) or an allowlist entry naming the other package whose
#      tests need it, no allowlist entry is stale, and cmd/assocd and
#      cmd/loadgen do not import internal/lp or internal/ilp — so
#      test-only code stays in _test.go files and the daemon does not
#      link the Figure 12 solvers
#  10. the metrics-doc drift gate: registers the daemon's full metric
#      surface (base + engine + lazily-registered algo_* families) and
#      fails if METRICS.md is missing a family, documents a removed
#      one, or the exposition violates the prom lint (incl. label
#      rules); regenerate with
#      UPDATE_METRICS_MD=1 go test ./cmd/assocd -run TestMetricsDocCurrent
#  11. a fuzz smoke pass: ~10s per fuzz target (events decoder,
#      multi-association decoder, NDJSON stream handler, checkpoint
#      envelope decoder (no panic; an accepted binary envelope
#      re-encodes to its own bytes), journal record decoder, engine
#      snapshot decoder, scenario loader, LP
#      solver, sparse greedy set
#      cover against the dense reference and a reused Solver, and the
#      Prometheus-text parser: no panic, and every exposition LintProm
#      accepts parses to one sample per non-comment line) so
#      corpus regressions surface in CI, not just in long local fuzz
#      runs
#  12. the benchmark module (bench/, a nested module outside
#      `go test ./...`): vet plus its tests, where TestQuickRuns runs
#      all five workloads at -quick with verified outputs and
#      TestSpecShape is the metric-name drift gate against
#      BENCHMARK.json — bench/ imports internal packages, so a
#      refactor that breaks it fails here
#  13. a leftover-process check: fails (after killing them) if any
#      assocd, loadgen or *.test process this run started is still
#      alive — every process started below inherits CHECK_RUN_ID, so
#      even one orphaned by a killed parent is found by its environment
set -eu

cd "$(dirname "$0")/.."

CHECK_RUN_ID="check-$$-$(date +%s)"
export CHECK_RUN_ID

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "check.sh: gofmt would reformat:" $unformatted >&2
    exit 1
fi

echo "== test-name guard (-run/-fuzz names in check.sh and ci.yml exist)"
missing=""
for name in $(grep -ohE -- "-(run|fuzz)[ =]+('[^']*'|\"[^\"]*\"|[^ '\"]+)" scripts/check.sh .github/workflows/ci.yml |
    grep -oE '(Test|Fuzz)[A-Za-z0-9_]+' | sort -u); do
    grep -rqE --include='*.go' "^func $name[A-Za-z0-9_]*\(" . || missing="$missing $name"
done
if [ -n "$missing" ]; then
    echo "check.sh: -run/-fuzz names with no matching func:$missing" >&2
    exit 1
fi

echo "== go test ./..."
go test ./...

echo "== go test -race (runner + experiments + obs + fault + engine + wal + stream + assocd + cmd/experiments + loadgen)"
go test -race ./internal/runner ./internal/experiments ./internal/obs ./internal/fault ./internal/engine ./internal/wal ./internal/stream ./cmd/assocd ./cmd/experiments ./cmd/loadgen

echo "== promtext lint (golden exposition + live /metrics)"
go test -run 'TestGoldenAssocdExposition|TestLintProm' -count 1 ./internal/obs
go test -run 'TestServeMetricsLint' -count 1 ./cmd/assocd

echo "== coverage gate (internal/wlan >= 96.1%, internal/geom >= 95.6%, internal/wal >= 78.0%, internal/core >= 90.0%)"
go test -cover -count 1 ./internal/geom ./internal/wlan ./internal/wal ./internal/core | awk '
{ print }
/coverage:/ {
    pct = $0
    sub(/.*coverage: /, "", pct)
    sub(/% of statements.*/, "", pct)
    if ($2 ~ /internal\/geom$/) { geom = pct + 0; geomSeen = 1 }
    if ($2 ~ /internal\/wlan$/) { wlan = pct + 0; wlanSeen = 1 }
    if ($2 ~ /internal\/wal$/) { wal = pct + 0; walSeen = 1 }
    if ($2 ~ /internal\/core$/) { core = pct + 0; coreSeen = 1 }
}
END {
    if (!geomSeen || !wlanSeen || !walSeen || !coreSeen) {
        print "check.sh: coverage output not parsed" > "/dev/stderr"; exit 1
    }
    if (geom < 95.6) {
        printf "check.sh: internal/geom coverage %.1f%% fell below the 95.6%% floor\n", geom > "/dev/stderr"; exit 1
    }
    if (wlan < 96.1) {
        printf "check.sh: internal/wlan coverage %.1f%% fell below the 96.1%% floor\n", wlan > "/dev/stderr"; exit 1
    }
    if (wal < 78.0) {
        printf "check.sh: internal/wal coverage %.1f%% fell below the 78.0%% floor\n", wal > "/dev/stderr"; exit 1
    }
    if (core < 90.0) {
        printf "check.sh: internal/core coverage %.1f%% fell below the 90.0%% floor\n", core > "/dev/stderr"; exit 1
    }
}'

echo "== allocation gate (engine event path <= 2 allocs/event, multi-homed Apply <= 4, BLA decision 0, snapshot encoder, tracker 0)"
go test -run 'TestEngineEventAllocGate|TestEngineMultihomeAllocGate|TestSnapshotEncodingGate' -count 1 ./internal/engine
go test -run 'TestChooseBLAAllocGate' -count 1 ./internal/core
go test -run 'TestTrackerAllocGate' -count 1 ./internal/wlan

echo "== behaviour gate (golden figure tables, tie rules, skip and solver-reuse differentials)"
go test -run 'TestBehaviourFigures' -count 1 ./internal/experiments
go test -run 'TestChooseTieRules|TestDistributedSkipMatchesRoundRobin|TestDistributedDecisions' -count 1 ./internal/core
go test -run 'TestSolverReuseMatchesFresh|TestGreedySparseMatchesDense' -count 1 ./internal/setcover

echo "== production-surface gate (no test-only exports under internal/, no LP/ILP in assocd or loadgen)"
go test -run 'TestProductionSurface' -count 1 .

echo "== metrics-doc drift gate (METRICS.md vs registered families)"
go test -run 'TestMetricsDocCurrent|TestMetricsDocLint' -count 1 ./cmd/assocd

echo "== fuzz smoke (10s per target)"
go test -run '^$' -fuzz 'FuzzDecodeEvents' -fuzztime 10s ./cmd/assocd
go test -run '^$' -fuzz 'FuzzDecodeMultiAssoc' -fuzztime 10s ./cmd/assocd
go test -run '^$' -fuzz 'FuzzStreamEvents' -fuzztime 10s ./cmd/assocd
go test -run '^$' -fuzz 'FuzzDecodeSnapshotEnvelope' -fuzztime 10s ./cmd/assocd
go test -run '^$' -fuzz 'FuzzWALDecode' -fuzztime 10s ./internal/wal
go test -run '^$' -fuzz 'FuzzRestoreSnapshot' -fuzztime 10s ./internal/engine
go test -run '^$' -fuzz 'FuzzLoad' -fuzztime 10s ./internal/scenario
go test -run '^$' -fuzz 'FuzzSolve' -fuzztime 10s ./internal/lp
go test -run '^$' -fuzz 'FuzzGreedySparse' -fuzztime 10s ./internal/setcover
go test -run '^$' -fuzz 'FuzzParseProm' -fuzztime 10s ./internal/obs

echo "== benchmark module (cd bench && go vet + go test)"
(cd bench && go vet ./... && go test -count 1 ./...)

echo "== leftover processes (assocd, loadgen, *.test started by this run)"
left=""
for env in /proc/[0-9]*/environ; do
    pid=${env#/proc/}
    pid=${pid%/environ}
    { tr '\0' '\n' <"$env"; } 2>/dev/null | grep -qx "CHECK_RUN_ID=$CHECK_RUN_ID" || continue
    # argv[0], not comm: comm is cut at 15 bytes (experiments.tes).
    name=$({ tr '\0' '\n' <"/proc/$pid/cmdline"; } 2>/dev/null | head -n 1) || continue
    name=${name##*/}
    case "$name" in
    assocd | loadgen | *.test)
        left="$left $pid($name)"
        kill -9 "$pid" 2>/dev/null || true
        ;;
    esac
done
if [ -n "$left" ]; then
    echo "check.sh: processes left running (now killed):$left" >&2
    exit 1
fi

echo "ok: all checks passed"
