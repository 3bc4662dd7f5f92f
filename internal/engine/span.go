package engine

// Stage-attributed observability (see DESIGN.md "Stage-attributed
// tracing"). The apply pipeline (batch.go) is instrumented two ways,
// both sourced from the same per-op timestamps:
//
//   - per-stage histograms (assocd_stage_seconds{stage=...}) say
//     where wall-clock goes in aggregate — validate vs apply vs
//     reduce, which partition a call's time;
//   - the trace recorder keeps the recent history verbatim: one
//     churn_event per applied event and one EvSpan per batch stage.
//
// Per-event observations stage through a local buffer
// (obs.LocalHistogram) and flush at batch epilogue, so the per-event
// cost stays off the shared atomics and the <= 2 allocs/event gate
// holds with everything on.

import (
	"time"

	"wlanmcast/internal/obs"
)

// Pipeline stages, indexing stageNames. queue_wait and the two
// handoff stages are never observed (the serial engine has no queue
// and no handoffs between workers): they stay registered at zero so
// the assocd_stage_seconds label set is stable.
const (
	stageValidate = iota
	stageQueueWait
	stageApply
	stageHandoffDepart
	stageHandoffArrive
	stageReduce
)

// stageNames are the assocd_stage_seconds label values, in stage
// order.
var stageNames = []string{"validate", "queue_wait", "apply", "handoff_depart", "handoff_arrive", "reduce"}

// eventKinds lists the churn event kinds in exposition order
// (assocd_events_total{kind}); kindSlot indexes it.
var eventKinds = [...]EventKind{UserJoin, UserLeave, UserMove, DemandChange, APDown, APUp}

// kindSlot is k's index in eventKinds (-1 for an unknown kind, which
// validate rejects before any event applies).
func kindSlot(k EventKind) int {
	for i, kind := range eventKinds {
		if kind == k {
			return i
		}
	}
	return -1
}

// StageBounds are the assocd_stage_seconds bucket bounds: stage spans
// start around tens of nanoseconds (a no-op demand change) and top
// out at a full-network repair, so the ladder extends two sub-
// microsecond rungs below DefaultLatencyBounds.
func StageBounds() []float64 {
	return []float64{64e-9, 256e-9, 1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1}
}

// observeStage records one batch-level stage (validate, reduce) into
// the stage histogram and the trace as an EvSpan carrying the event
// count.
func (e *Engine) observeStage(stage int, start time.Time, events int) {
	elapsed := e.now().Sub(start).Seconds()
	e.metrics.stageLat.At(stage).Observe(elapsed)
	if obs.Active(e.trace) {
		e.trace.Record(obs.Event{Type: obs.EvSpan, Algo: "engine", Kind: stageNames[stage], N: events, Value: elapsed})
	}
}

// flushStageStats folds the staged apply observations into the shared
// histogram. Runs once per call, from updateGauges, so every public
// entry point leaves the registry current.
func (e *Engine) flushStageStats() { e.localApply.Flush() }
