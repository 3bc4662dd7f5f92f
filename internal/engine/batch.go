package engine

import (
	"time"

	"wlanmcast/internal/obs"
)

// The apply pipeline.
//
// Every event enters the engine through ApplyBatch — Apply is a batch
// of one, ApplyStream is ApplyBatch — which runs three steps on the
// caller's goroutine:
//
//   - Validate: validate (fault.go) checks the batch in order against
//     an overlay of the pre-batch state and cuts it at the first
//     invalid event.
//   - Apply: runOp applies each event of the valid prefix in order —
//     applyPrimary, then repair (a full recompute under
//     ModeFullRecompute), then finishEvent. The first internal error
//     stops the batch there.
//   - Reduce: reduce flushes the call's tallies, derives the
//     multi-homes and refreshes the gauges.

// BatchResult aggregates what ApplyBatch did.
type BatchResult struct {
	// Applied is how many events were applied. On a validation error
	// it is the index of the rejected event (the prefix before it is
	// fully applied); on an internal error it is the index of the
	// event that failed.
	Applied int `json:"applied"`
	// Redecisions and Moves total the per-event costs, matching a loop
	// of Apply calls.
	Redecisions int `json:"redecisions"`
	Moves       int `json:"moves"`
	// Orphaned totals users disassociated by ap_down events.
	Orphaned int `json:"orphaned,omitempty"`
	// Truncated counts events whose repair hit MaxRedecisions, at most
	// once per event.
	Truncated int `json:"truncated,omitempty"`
}

// ApplyBatch validates and applies events in order, repairing after
// each, then reduces once: one multi-home derivation and one gauge
// refresh per call. On a validation failure the earlier events stay
// applied, the batch stops, and the error reports the offending event;
// Applied tells how far it got. An internal error stops the batch at
// the event that raised it the same way.
func (e *Engine) ApplyBatch(events []Event) (BatchResult, error) {
	start := e.now()
	n, err := e.validate(events)
	e.observeStage(stageValidate, start, n)
	for i, ev := range events[:n] {
		if ierr := e.runOp(ev); ierr != nil {
			n, err = i, ierr
			break
		}
	}
	return e.reduce(n, err)
}

// reduce is the batch epilogue: flush the tallies, derive the
// multi-homes, refresh the gauges, and observe the reduce stage.
// applied is how many events applied, err the batch's error.
func (e *Engine) reduce(applied int, err error) (BatchResult, error) {
	start := e.now()
	br := BatchResult{
		Applied:     applied,
		Redecisions: int(e.tally.redecisions),
		Moves:       int(e.tally.handoffs),
		Orphaned:    int(e.tally.orphaned),
		Truncated:   int(e.tally.truncated),
	}
	e.metrics.applyTally(&e.tally)
	e.deriveMulti()
	e.updateGauges()
	e.observeStage(stageReduce, start, applied)
	return br, err
}

// runOp applies one event under the next sequence number; it is the
// only code that applies an event.
func (e *Engine) runOp(ev Event) error {
	start := e.now()
	res := ApplyResult{Event: ev}
	err := e.applyPrimary(ev, &res)
	if err == nil {
		err = e.repair(&res)
	}
	if err == nil {
		e.finishEvent(ev, &res, start)
	}
	return err
}

// finishEvent accounts one completed event: tally counters, the live
// latency histogram, the apply stage sample (the same duration, so
// each event reads the clock twice), and the churn trace.
func (e *Engine) finishEvent(ev Event, res *ApplyResult, start time.Time) {
	res.Elapsed = e.now().Sub(start)
	e.tally.count(ev.Kind, res)
	e.metrics.latency.Observe(res.Elapsed.Seconds())
	e.localApply.Observe(res.Elapsed.Seconds())
	if obs.Active(e.trace) {
		ap := -1
		if ev.Kind == APDown || ev.Kind == APUp {
			ap = ev.AP
		}
		e.trace.Record(obs.Event{Type: obs.EvChurn, Kind: string(ev.Kind), User: ev.User, AP: ap,
			N: res.Redecisions, Value: res.Elapsed.Seconds()})
	}
}
