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
//     ModeFullRecompute), then finish.
//   - Reduce: reduce folds the worker's tallies and active-user delta,
//     derives the multi-homes and refreshes the gauges.

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
// Applied tells how far it got.
func (e *Engine) ApplyBatch(events []Event) (BatchResult, error) {
	start := e.now()
	e.batchStartNS = start.UnixNano()
	n, verr := e.validate(events)
	e.observeStage(stageValidate, start, n)
	for i := range events[:n] {
		if e.w.err != nil {
			break
		}
		e.w.runOp(int32(i), events[i])
	}
	return e.reduce(n, verr)
}

// reduce is the batch epilogue: surface the worker's internal error,
// fold the tallies and active delta, derive the multi-homes, refresh
// the gauges, and observe the reduce stage. validated is the valid
// prefix length, verr the validation error.
func (e *Engine) reduce(validated int, verr error) (BatchResult, error) {
	start := e.now()
	e.seqBase += uint64(validated)
	w := e.w
	werr, wGidx := w.err, w.errGidx
	w.err, w.errGidx = nil, 0
	br := BatchResult{
		Applied:     validated,
		Redecisions: int(w.tally.redecisions),
		Moves:       int(w.tally.handoffs),
		Orphaned:    int(w.tally.orphaned),
		Truncated:   int(w.tally.truncated),
	}
	e.metrics.applyTally(&w.tally)
	e.nActive += w.dActive
	w.dActive = 0
	e.deriveMulti()
	e.updateGauges()
	e.observeStage(stageReduce, start, validated)
	if werr != nil {
		br.Applied = int(wGidx)
		return br, werr
	}
	return br, verr
}

// runOp applies the batch's event at index gidx; it is the only code
// that applies an event.
func (w *worker) runOp(gidx int32, ev Event) {
	e := w.e
	start := e.now()
	startNS := start.UnixNano()
	waitNS := max(startNS-e.batchStartNS, 0)
	if gidx == 0 && e.spansOn {
		// queue_wait is one sample per batch (batch start to the first
		// op), so its sum stays within wall time.
		w.localWait.Observe(float64(waitNS) / 1e9)
	}
	seq := e.seqBase + uint64(gidx) + 1
	res := ApplyResult{Event: ev}
	w.beginSpan(ev, seq, startNS, waitNS)
	if err := w.applyPrimary(ev, &res); err != nil {
		w.fail(gidx, err)
	} else if err := w.repair(&res); err != nil {
		w.fail(gidx, err)
	} else {
		w.finish(ev, &res, start)
	}
	w.endSpan(ev, seq, startNS, waitNS)
}

// fail records the worker's internal error and the event it happened
// on; ApplyBatch applies nothing after it.
func (w *worker) fail(gidx int32, err error) {
	w.err = err
	w.errGidx = gidx
}

// finish accounts one completed event: tally counters, the live
// latency histogram, and the churn trace.
func (w *worker) finish(ev Event, res *ApplyResult, start time.Time) {
	e := w.e
	res.Elapsed = e.now().Sub(start)
	w.tally.count(ev.Kind, res)
	e.metrics.latency.Observe(res.Elapsed.Seconds())
	if obs.Active(e.trace) {
		ap := -1
		if ev.Kind == APDown || ev.Kind == APUp {
			ap = ev.AP
		}
		e.trace.Record(obs.Event{Type: obs.EvChurn, Kind: string(ev.Kind), User: ev.User, AP: ap,
			N: res.Redecisions, Value: res.Elapsed.Seconds()})
	}
}
