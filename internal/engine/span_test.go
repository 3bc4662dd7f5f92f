package engine

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/obs"
)

// checkShardConsistency cross-checks the per-shard labeled series
// against the engine's scalar counters: the shard breakdown must be a
// partition of the totals, not a second accounting that can drift.
func checkShardConsistency(t *testing.T, e *Engine) {
	t.Helper()
	st := e.Stats()
	ss := e.ShardStats()
	if len(ss) != e.Shards() {
		t.Fatalf("ShardStats len %d, want %d", len(ss), e.Shards())
	}
	var events, handoffs uint64
	var users int
	var load float64
	for i, s := range ss {
		if s.Shard != i {
			t.Fatalf("ShardStats[%d].Shard = %d", i, s.Shard)
		}
		if s.QueueDepth != 0 {
			t.Fatalf("shard %d queue depth %d after batch, want 0", i, s.QueueDepth)
		}
		events += s.Events
		handoffs += s.Handoffs
		users += s.Users
		load += s.Load
	}
	if got := st.EventsTotal(); events != got {
		t.Fatalf("sum shard events %d != events total %d", events, got)
	}
	if handoffs != st.Handoffs {
		t.Fatalf("sum shard handoffs %d != handoffs total %d", handoffs, st.Handoffs)
	}
	if got := e.ActiveUsers(); users != got {
		t.Fatalf("sum shard users %d != active users %d", users, got)
	}
	// Per-shard loads sum in a different order than TotalLoad's
	// ascending-AP walk, so only near-equality holds.
	if got := e.TotalLoad(); math.Abs(load-got) > 1e-6 {
		t.Fatalf("sum shard load %v != total load %v", load, got)
	}
}

// TestEngineInstrumentedDifferential rides the 26-seed differential
// suite with every observability knob on — trace ring, flight
// recorder, per-event spans, armed watchdog — asserting the
// instrumented engine still produces byte-identical snapshots for
// Shards = 1..8, and that the per-shard series stay a partition of
// the scalar totals at every batch boundary.
func TestEngineInstrumentedDifferential(t *testing.T) {
	apply := func(e *Engine, evs []Event) (BatchResult, error) {
		br, err := e.ApplyBatch(evs)
		if err == nil {
			checkShardConsistency(t, e)
			if e.Flight() == nil || e.Flight().Total() == 0 {
				t.Fatal("flight recorder saw no spans")
			}
		}
		return br, err
	}
	runDifferential(t, []int{1, 2, 8}, apply, func(cfg *Config) {
		cfg.Trace = obs.NewRing(0)
		cfg.StallTimeout = 5 * time.Second
		cfg.OnStall = func(si StallInfo) { t.Errorf("unexpected stall dump: %+v", si) }
	})
}

// TestEngineStreamInstrumentedDifferential is the same sweep through
// ApplyStream, the streaming-ingest framing: its windows must keep
// byte-identical snapshots and a consistent per-shard partition with
// the trace ring on.
func TestEngineStreamInstrumentedDifferential(t *testing.T) {
	apply := func(e *Engine, evs []Event) (BatchResult, error) {
		br, err := e.ApplyStream(evs)
		if err == nil {
			checkShardConsistency(t, e)
		}
		return br, err
	}
	runDifferential(t, []int{1, 2, 8}, apply, func(cfg *Config) {
		cfg.Trace = obs.NewRing(0)
	})
}

// TestEngineQueueWaitSums pins queue_wait at one sample per worker per
// batch: over a multi-window ApplyStream run its histogram sum stays
// within the measured wall time times the shard count. A per-event
// sample (time since batch start) would grow with the square of the
// window instead.
func TestEngineQueueWaitSums(t *testing.T) {
	const window = 96
	for _, shards := range []int{1, 2} {
		n, trace, initial := zonedSetup(t, 7, 4, 12, 40, 480)
		e := newEngine(t, n, Config{ActiveUsers: initial, Shards: shards})
		windows := 0
		start := time.Now()
		for s := 0; s < len(trace); s += window {
			if _, err := e.ApplyStream(trace[s:min(s+window, len(trace))]); err != nil {
				t.Fatal(err)
			}
			windows++
		}
		wall := time.Since(start).Seconds()
		qw := e.metrics.stageLat.At(stageQueueWait).Snapshot()
		if qw.Count == 0 || qw.Count > uint64(windows*shards) {
			t.Errorf("shards=%d: %d queue_wait samples over %d windows, want 1..%d", shards, qw.Count, windows, windows*shards)
		}
		if qw.Sum > wall*float64(shards) {
			t.Errorf("shards=%d: queue_wait sum %.6fs exceeds wall time %.6fs x %d shards", shards, qw.Sum, wall, shards)
		}
	}
}

// TestEngineFlightDisabled pins the FlightSpans < 0 escape hatch: no
// recorder, no span observations (the stage histograms stay empty),
// but the per-shard accounting — which is staged, not span-gated —
// keeps working, and the registry still exposes every family.
func TestEngineFlightDisabled(t *testing.T) {
	n, trace, initial := zonedSetup(t, 3, 4, 12, 40, 60)
	e := newEngine(t, n, Config{ActiveUsers: initial, Shards: 2, FlightSpans: -1})
	if e.Flight() != nil {
		t.Fatal("Flight() non-nil with FlightSpans < 0")
	}
	if _, err := e.ApplyBatch(trace); err != nil {
		t.Fatal(err)
	}
	checkShardConsistency(t, e)
	var buf bytes.Buffer
	if err := e.Registry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `assocd_stage_seconds_count{stage="apply"} 0`) {
		t.Errorf("stage histogram not empty with spans disabled")
	}
	if !strings.Contains(out, `assocd_shard_events_total{shard="0"}`) {
		t.Errorf("per-shard series missing from exposition")
	}
	if err := obs.LintProm(strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStageExposition applies a zoned trace on an instrumented
// sharded engine and checks the stage/shard families carry data and
// the exposition stays lint-clean.
func TestEngineStageExposition(t *testing.T) {
	n, trace, initial := zonedSetup(t, 4, 4, 12, 40, 120)
	e := newEngine(t, n, Config{ActiveUsers: initial, Shards: 4, Trace: obs.NewRing(0)})
	if _, err := e.ApplyBatch(trace); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Registry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := obs.LintProm(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, out)
	}
	for _, stage := range stageNames {
		if !strings.Contains(out, `assocd_stage_seconds_count{stage="`+stage+`"}`) {
			t.Errorf("stage %q missing from assocd_stage_seconds", stage)
		}
	}
	if strings.Contains(out, `assocd_stage_seconds_count{stage="validate"} 0`) {
		t.Error("validate stage histogram empty after a sharded batch")
	}
	var busy float64
	for s := 0; s < e.Shards(); s++ {
		busy += e.metrics.shardBusy[s].Value()
	}
	if busy <= 0 {
		t.Errorf("assocd_shard_busy_seconds_total sum = %v, want > 0", busy)
	}
	// Batch-granular spans (validate/reduce) ride the trace as EvSpan.
	ring := e.cfg.Trace.(*obs.Ring)
	if n := ring.CountsByType()[obs.EvSpan]; n == 0 {
		t.Error("no EvSpan records on the trace ring")
	}
}

// stallRecorder is a trace Recorder that blocks the first EvChurn
// record for the armed user, holding the recording shard worker
// inside finish() — and therefore inside its open flight span — until
// released. Everything else records as a no-op.
type stallRecorder struct {
	mu      sync.Mutex
	user    int
	blocked chan struct{} // closed when the block engages
	release chan struct{} // closed by the test to let the worker go
	armed   bool
}

func (r *stallRecorder) arm(user int) (blocked, release chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.user = user
	r.blocked = make(chan struct{})
	r.release = make(chan struct{})
	r.armed = true
	return r.blocked, r.release
}

func (r *stallRecorder) Enabled() bool { return true }

func (r *stallRecorder) Record(ev obs.Event) {
	if ev.Type != obs.EvChurn {
		return
	}
	r.mu.Lock()
	var release chan struct{}
	if r.armed && ev.User == r.user {
		close(r.blocked)
		r.armed = false
		release = r.release
	}
	r.mu.Unlock()
	if release != nil {
		<-release
	}
}

// TestEngineStallWatchdogDump forces a shard worker to stall
// mid-event and asserts the watchdog (a) fires OnStall with a flight
// dump whose open spans name the exact event the worker is holding,
// (b) dumps at most once per stall episode, (c) survives a panicking
// callback, and (d) rearms for the next episode once the worker moves
// again.
func TestEngineStallWatchdogDump(t *testing.T) {
	rec := &stallRecorder{}
	stallCh := make(chan StallInfo, 16)
	cfg := Config{
		Shards:       2,
		StallTimeout: 20 * time.Millisecond,
		Trace:        rec,
		OnStall: func(si StallInfo) {
			stallCh <- si
			// The watchdog must swallow this: a broken dump consumer
			// cannot be allowed to take the batch down.
			panic("stall callback panic")
		},
	}
	e := newEngine(t, twoRegionNetwork(t), cfg)
	if e.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", e.Shards())
	}

	runEpisode := func(user int, pos geom.Point, wantSeq uint64) {
		t.Helper()
		blocked, release := rec.arm(user)
		done := make(chan BatchResult, 1)
		go func() {
			br, err := e.ApplyBatch([]Event{{Kind: UserMove, User: user, Pos: pos}})
			if err != nil {
				t.Errorf("user %d batch: %v", user, err)
			}
			done <- br
		}()
		<-blocked // the worker is now stuck inside its open apply span

		var si StallInfo
		select {
		case si = <-stallCh:
		case <-time.After(10 * time.Second):
			t.Fatal("watchdog never fired")
		}
		if si.Stalled < cfg.StallTimeout {
			t.Errorf("StallInfo.Stalled = %v, want >= %v", si.Stalled, cfg.StallTimeout)
		}
		var open *obs.FlightSpan
		for i, sp := range si.Dump.Open {
			if sp.User == user {
				open = &si.Dump.Open[i]
			}
		}
		if open == nil {
			t.Fatalf("stalled user %d not in dump open spans: %+v", user, si.Dump.Open)
		}
		if !open.Open || open.Stage != "apply" || open.Kind != "move" || open.Seq != wantSeq {
			t.Errorf("open span %+v: want open apply/move span with seq %d", *open, wantSeq)
		}
		if open.Shard != si.Worker {
			t.Errorf("open span shard %d != stalled worker %d", open.Shard, si.Worker)
		}
		if open.Writer != si.Worker+1 {
			t.Errorf("open span writer %d, want %d (worker id + 1)", open.Writer, si.Worker+1)
		}

		// One dump per episode: keep the worker stuck several more
		// watchdog periods and insist the latch holds.
		select {
		case si2 := <-stallCh:
			t.Fatalf("second dump within one stall episode: %+v", si2)
		case <-time.After(6 * cfg.StallTimeout):
		}
		close(release)
		if br := <-done; br.Applied != 1 {
			t.Errorf("Applied = %d after release, want 1", br.Applied)
		}
	}

	// Episode 1: user 0 moving inside region 0. Episode 2 proves the
	// per-worker latch rearmed after the first episode's progress.
	runEpisode(0, geom.Point{X: 130, Y: 100}, 1)
	runEpisode(1, geom.Point{X: 1060, Y: 100}, 2)

	if n := len(stallCh); n != 0 {
		t.Fatalf("%d extra stall dumps queued", n)
	}
	checkShardConsistency(t, e)
}
