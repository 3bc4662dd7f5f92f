package engine

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"wlanmcast/internal/obs"
)

// checkStageConsistency cross-checks the apply-stage histogram
// against the engine's scalar counters: with spans on, every applied
// event observes exactly one apply sample, so the stage breakdown
// cannot drift from the totals.
func checkStageConsistency(t *testing.T, e *Engine) {
	t.Helper()
	st := e.Stats()
	if got := e.metrics.stageLat.At(stageApply).Snapshot().Count; got != st.EventsTotal() {
		t.Fatalf("apply stage samples %d != events total %d", got, st.EventsTotal())
	}
}

// TestEngineInstrumentedDifferential rides the 26-seed differential
// suite with every observability knob on — trace ring, flight
// recorder, per-event spans — asserting the instrumented engine still
// produces byte-identical snapshots, and that the apply-stage samples
// match the scalar totals at every batch boundary.
func TestEngineInstrumentedDifferential(t *testing.T) {
	apply := func(e *Engine, evs []Event) (BatchResult, error) {
		br, err := e.ApplyBatch(evs)
		if err == nil {
			checkStageConsistency(t, e)
			if e.Flight() == nil || e.Flight().Total() == 0 {
				t.Fatal("flight recorder saw no spans")
			}
		}
		return br, err
	}
	runDifferential(t, apply, func(cfg *Config) {
		cfg.Trace = obs.NewRing(0)
	})
}

// TestEngineStreamInstrumentedDifferential is the same sweep through
// ApplyStream, the streaming-ingest framing: its windows must keep
// byte-identical snapshots and consistent apply-stage samples with the
// trace ring on.
func TestEngineStreamInstrumentedDifferential(t *testing.T) {
	apply := func(e *Engine, evs []Event) (BatchResult, error) {
		br, err := e.ApplyStream(evs)
		if err == nil {
			checkStageConsistency(t, e)
		}
		return br, err
	}
	runDifferential(t, apply, func(cfg *Config) {
		cfg.Trace = obs.NewRing(0)
	})
}

// TestEngineQueueWaitSums pins the stage accounting of the serial
// pipeline: queue_wait stays registered but is never observed (there
// is no queue), and validate + apply + reduce — which partition each
// call — sum to no more than the measured wall time over a
// multi-window ApplyStream run.
func TestEngineQueueWaitSums(t *testing.T) {
	const window = 96
	n, trace, initial := zonedSetup(t, 7, 4, 12, 40, 480)
	e := newEngine(t, n, Config{ActiveUsers: initial})
	start := time.Now()
	for s := 0; s < len(trace); s += window {
		if _, err := e.ApplyStream(trace[s:min(s+window, len(trace))]); err != nil {
			t.Fatal(err)
		}
	}
	wall := time.Since(start).Seconds()
	if got, ok := e.Registry().Value("assocd_stage_seconds", obs.L("stage", "queue_wait")); !ok || got != 0 {
		t.Errorf("queue_wait series: %v samples (exposed %v), want exposed with 0", got, ok)
	}
	sum := 0.0
	for _, stage := range []int{stageValidate, stageApply, stageReduce} {
		st := e.metrics.stageLat.At(stage).Snapshot()
		if st.Count == 0 {
			t.Errorf("stage %s never observed", stageNames[stage])
		}
		sum += st.Sum
	}
	if sum > wall {
		t.Errorf("validate + apply + reduce = %.6fs exceeds wall time %.6fs", sum, wall)
	}
}

// TestEngineFlightDisabled pins the FlightSpans < 0 escape hatch: no
// recorder, no span observations (the stage histograms stay empty),
// but the event counters keep working and the registry still exposes
// every family.
func TestEngineFlightDisabled(t *testing.T) {
	n, trace, initial := zonedSetup(t, 3, 4, 12, 40, 60)
	e := newEngine(t, n, Config{ActiveUsers: initial, FlightSpans: -1})
	if e.Flight() != nil {
		t.Fatal("Flight() non-nil with FlightSpans < 0")
	}
	if _, err := e.ApplyBatch(trace); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.EventsTotal() != uint64(len(trace)) {
		t.Errorf("events total %d, want %d", st.EventsTotal(), len(trace))
	}
	var buf bytes.Buffer
	if err := e.Registry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `assocd_stage_seconds_count{stage="apply"} 0`) {
		t.Errorf("stage histogram not empty with spans disabled")
	}
	if !strings.Contains(out, `assocd_stage_seconds_count{stage="handoff_arrive"} 0`) {
		t.Errorf("handoff stage label missing from exposition")
	}
	if err := obs.LintProm(strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStageExposition applies a zoned trace on an instrumented
// engine and checks the stage family carries data and the exposition
// stays lint-clean.
func TestEngineStageExposition(t *testing.T) {
	n, trace, initial := zonedSetup(t, 4, 4, 12, 40, 120)
	e := newEngine(t, n, Config{ActiveUsers: initial, Trace: obs.NewRing(0)})
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
		t.Error("validate stage histogram empty after a batch")
	}
	checkStageConsistency(t, e)
	// Batch-granular spans (validate/reduce) ride the trace as EvSpan.
	ring := e.cfg.Trace.(*obs.Ring)
	if n := ring.CountsByType()[obs.EvSpan]; n == 0 {
		t.Error("no EvSpan records on the trace ring")
	}
}
