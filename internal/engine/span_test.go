package engine

import (
	"bytes"
	"strings"
	"sync"
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
	total := st.Joins + st.Leaves + st.UserMoves + st.DemandChanges + st.APDowns + st.APUps
	if got := e.metrics.stageLat.At(stageApply).Snapshot().Count; got != total {
		t.Fatalf("apply stage samples %d != events total %d", got, total)
	}
}

// TestEngineInstrumentedDifferential rides the 26-seed differential
// suite with the trace ring on, asserting the instrumented engine
// still produces byte-identical snapshots, that the apply-stage
// samples match the scalar totals at every batch boundary, and that
// the ring holds the applied events' churn_event records.
func TestEngineInstrumentedDifferential(t *testing.T) {
	apply := func(e *Engine, evs []Event) (BatchResult, error) {
		br, err := e.ApplyBatch(evs)
		if err == nil {
			checkStageConsistency(t, e)
			if e.cfg.Trace.(*obs.Ring).CountsByType()[obs.EvChurn] == 0 {
				t.Fatal("trace ring holds no churn_event")
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

// TestEngineTraceReadMidEvent pins that the trace ring is readable
// while a batch runs: a Now hook parks the engine at the start of the
// batch's second event, and another goroutine reads the ring there and
// finds the first event's churn_event as the last one recorded.
func TestEngineTraceReadMidEvent(t *testing.T) {
	n, trace, initial := zonedSetup(t, 3, 4, 12, 40, 60)
	ring := obs.NewRing(0)
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	now := func() time.Time {
		// Engine goroutine only: the first clock read after one
		// churn_event is the second event's start.
		if ring.CountsByType()[obs.EvChurn] == 1 {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
		return time.Now()
	}
	e := newEngine(t, n, Config{ActiveUsers: initial, Trace: ring, Now: now})
	done := make(chan error, 1)
	go func() {
		_, err := e.ApplyBatch(trace)
		done <- err
	}()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("batch returned (%v) without parking mid-event", err)
	}
	var last obs.Event
	churns := 0
	for _, ev := range ring.Snapshot() {
		if ev.Type == obs.EvChurn {
			last = ev
			churns++
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if churns != 1 || last.Kind != string(trace[0].Kind) || last.User != trace[0].User {
		t.Errorf("mid-event ring: %d churn_event(s), last %+v; want 1, for %+v", churns, last, trace[0])
	}
	if got := ring.CountsByType()[obs.EvChurn]; got != uint64(len(trace)) {
		t.Errorf("churn_events after the batch = %d, want %d", got, len(trace))
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

// spyRecorder keeps every event recorded into it; enabled is what it
// reports to obs.Active.
type spyRecorder struct {
	enabled bool
	events  []obs.Event
}

func (r *spyRecorder) Record(ev obs.Event) { r.events = append(r.events, ev) }
func (r *spyRecorder) Enabled() bool       { return r.enabled }

// TestObserveStageRecordsSpan pins the batch-stage trace span: one
// EvSpan naming the stage and its event count, whose Value is the
// elapsed seconds of the injected clock, and nothing recorded through
// a nil or disabled recorder.
func TestObserveStageRecordsSpan(t *testing.T) {
	var clock time.Time
	now := func() time.Time { return clock }
	on, off := &spyRecorder{enabled: true}, &spyRecorder{}
	for _, rec := range []obs.Recorder{on, off, nil, obs.Disabled} {
		e := newEngine(t, twoRegionNetwork(t), Config{Trace: rec, Now: now})
		on.events, off.events = nil, nil
		clock = time.Unix(0, 3_500)
		e.observeStage(stageValidate, time.Unix(0, 1_000), 10)
		if rec != on {
			if len(off.events) != 0 {
				t.Errorf("disabled recorder holds %+v", off.events)
			}
			continue
		}
		if len(on.events) != 1 {
			t.Fatalf("%d events, want 1", len(on.events))
		}
		ev := on.events[0]
		if ev.Type != obs.EvSpan || ev.Algo != "engine" || ev.Kind != "validate" || ev.N != 10 {
			t.Errorf("span event %+v", ev)
		}
		if want := 2.5e-6; ev.Value != want {
			t.Errorf("Value %g, want %g", ev.Value, want)
		}
	}
}
