package engine

// Stage-attributed observability (see DESIGN.md "Stage-attributed
// tracing"). The apply pipeline (batch.go) is instrumented two ways,
// both sourced from the same per-op timestamps:
//
//   - per-stage histograms (assocd_stage_seconds{stage=...}) say
//     where wall-clock goes in aggregate — queue wait vs validate vs
//     apply vs reduce;
//   - the flight recorder keeps the last N spans verbatim, plus the
//     span of the event being applied right now.
//
// Per-event observations stage through worker-local buffers
// (obs.LocalHistogram) and flush at batch epilogue, so the per-event
// cost stays off the shared atomics and the <= 2 allocs/event gate
// holds with everything on.

import (
	"time"

	"wlanmcast/internal/obs"
)

// Pipeline stages, indexing stageNames and the flight recorder's
// stage table. The two handoff stages are never observed: they stay
// registered at zero so the assocd_stage_seconds label set is stable.
const (
	stageValidate = iota
	stageQueueWait
	stageApply
	stageHandoffDepart
	stageHandoffArrive
	stageReduce
	numStages
)

// stageNames are the assocd_stage_seconds label values, in stage
// order.
var stageNames = []string{"validate", "queue_wait", "apply", "handoff_depart", "handoff_arrive", "reduce"}

// flightKinds resolves the SpanData kind enum; index 0 is "no kind"
// (batch-level spans).
var flightKinds = []string{"", string(UserJoin), string(UserLeave), string(UserMove), string(DemandChange), string(APDown), string(APUp)}

// kindIndex maps an event kind onto the flight recorder's kind enum.
func kindIndex(k EventKind) uint8 {
	switch k {
	case UserJoin:
		return 1
	case UserLeave:
		return 2
	case UserMove:
		return 3
	case DemandChange:
		return 4
	case APDown:
		return 5
	case APUp:
		return 6
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

// setupFlight builds the flight recorder and the worker's staging
// buffers. Writer 0 belongs to the batch-level stages (validate,
// reduce); the worker writes its op spans as writer 1.
func (e *Engine) setupFlight() {
	if e.cfg.FlightSpans >= 0 {
		e.spansOn = true
		e.flight = obs.NewFlightRecorder(e.cfg.FlightSpans, 2, stageNames, flightKinds)
	}
	e.w.localWait = e.metrics.stageLat.At(stageQueueWait).Local()
	e.w.localApply = e.metrics.stageLat.At(stageApply).Local()
}

// flightWriter is the worker's flight-recorder writer index.
const flightWriter = 1

// beginSpan publishes an open flight span for the event the worker is
// about to apply.
func (w *worker) beginSpan(ev Event, seq uint64, startNS, waitNS int64) {
	if !w.e.spansOn {
		return
	}
	w.e.flight.Begin(flightWriter, obs.SpanData{
		Stage: stageApply, Kind: kindIndex(ev.Kind), User: int32(ev.User),
		Seq: seq, StartNS: startNS, WaitNS: waitNS,
	})
}

// endSpan closes the event's span: the apply duration stages into the
// worker's local histogram and the completed span, with its queue
// wait, enters the flight ring.
func (w *worker) endSpan(ev Event, seq uint64, startNS, waitNS int64) {
	e := w.e
	if !e.spansOn {
		return
	}
	durNS := e.now().UnixNano() - startNS
	w.localApply.Observe(float64(durNS) / 1e9)
	e.flight.End(flightWriter, obs.SpanData{
		Stage: stageApply, Kind: kindIndex(ev.Kind), User: int32(ev.User),
		Seq: seq, StartNS: startNS, DurNS: durNS, WaitNS: waitNS,
	})
}

// observeStage records one batch-level stage (validate, reduce) into
// the stage histogram, the flight ring, and the trace as an EvSpan
// carrying the event count.
func (e *Engine) observeStage(stage int, start time.Time, events int) {
	end := e.now()
	if e.spansOn {
		e.metrics.stageLat.At(stage).Observe(end.Sub(start).Seconds())
		e.flight.Record(obs.SpanData{
			Stage: uint8(stage), Seq: e.seqBase,
			StartNS: start.UnixNano(), DurNS: int64(end.Sub(start)),
		})
	}
	sp := obs.StartSpan(e.trace, obs.Event{Algo: "engine", Kind: stageNames[stage], N: events}, start.UnixNano())
	sp.End(end.UnixNano())
}

// flushStageStats folds the worker's staged stage observations into
// the shared histograms. Runs once per call, from updateGauges, so
// every public entry point leaves the registry current.
func (e *Engine) flushStageStats() {
	e.w.localWait.Flush()
	e.w.localApply.Flush()
}
