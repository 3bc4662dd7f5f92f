package engine

// Stage-attributed observability (see DESIGN.md "Stage-attributed
// tracing"). The apply pipeline (batch.go) is instrumented two ways,
// both sourced from the same per-op timestamps:
//
//   - per-stage histograms (assocd_stage_seconds{stage=...}) say
//     where wall-clock goes in aggregate — validate vs apply vs
//     reduce, which partition a call's time;
//   - the flight recorder keeps the last N spans verbatim, plus the
//     span of the event being applied right now.
//
// Per-event observations stage through a local buffer
// (obs.LocalHistogram) and flush at batch epilogue, so the per-event
// cost stays off the shared atomics and the <= 2 allocs/event gate
// holds with everything on.

import (
	"time"

	"wlanmcast/internal/obs"
)

// Pipeline stages, indexing stageNames and the flight recorder's
// stage table. queue_wait and the two handoff stages are never
// observed (the serial engine has no queue and no handoffs between
// workers): they stay registered at zero so the assocd_stage_seconds
// label set is stable.
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
// (assocd_events_total{kind}); kindIndex numbers them from 1.
var eventKinds = [...]EventKind{UserJoin, UserLeave, UserMove, DemandChange, APDown, APUp}

// flightKinds resolves the SpanData kind enum: index 0 is "no kind"
// (batch-level spans), index i is eventKinds[i-1].
var flightKinds = []string{"", string(UserJoin), string(UserLeave), string(UserMove), string(DemandChange), string(APDown), string(APUp)}

// kindIndex maps an event kind onto the flight recorder's kind enum.
func kindIndex(k EventKind) uint8 {
	for i, kind := range eventKinds {
		if kind == k {
			return uint8(i + 1)
		}
	}
	return 0
}

// StageBounds are the assocd_stage_seconds bucket bounds: stage spans
// start around tens of nanoseconds (a no-op demand change) and top
// out at a full-network repair, so the ladder extends two sub-
// microsecond rungs below DefaultLatencyBounds.
func StageBounds() []float64 {
	return []float64{64e-9, 256e-9, 1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1}
}

// Flight returns the engine's flight recorder (nil when
// Config.FlightSpans < 0 disabled it). The recorder is safe to
// snapshot from any goroutine, concurrently with a running batch.
func (e *Engine) Flight() *obs.FlightRecorder { return e.flight }

// setupFlight builds the flight recorder and the apply stage's
// staging buffer.
func (e *Engine) setupFlight() {
	if e.cfg.FlightSpans >= 0 {
		e.flight = obs.NewFlightRecorder(e.cfg.FlightSpans, stageNames, flightKinds)
	}
	e.localApply = e.metrics.stageLat.At(stageApply).Local()
}

// endSpan closes an event's span: the apply duration stages into the
// local histogram and the completed span enters the flight ring.
func (e *Engine) endSpan(sp obs.SpanData) {
	if e.flight == nil {
		return
	}
	sp.DurNS = e.now().UnixNano() - sp.StartNS
	e.localApply.Observe(float64(sp.DurNS) / 1e9)
	e.flight.End(sp)
}

// observeStage records one batch-level stage (validate, reduce) into
// the stage histogram, the flight ring, and the trace as an EvSpan
// carrying the event count.
func (e *Engine) observeStage(stage int, start time.Time, events int) {
	end := e.now()
	if e.flight != nil {
		e.metrics.stageLat.At(stage).Observe(end.Sub(start).Seconds())
		e.flight.Record(obs.SpanData{
			Stage: uint8(stage), Seq: e.seq,
			StartNS: start.UnixNano(), DurNS: int64(end.Sub(start)),
		})
	}
	sp := obs.StartSpan(e.trace, obs.Event{Algo: "engine", Kind: stageNames[stage], N: events}, start.UnixNano())
	sp.End(end.UnixNano())
}

// flushStageStats folds the staged apply observations into the shared
// histogram. Runs once per call, from updateGauges, so every public
// entry point leaves the registry current.
func (e *Engine) flushStageStats() { e.localApply.Flush() }
