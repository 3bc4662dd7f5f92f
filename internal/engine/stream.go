package engine

// Streaming ingest entry point.
//
// ApplyStream is the batch path the assocd NDJSON stream endpoint (and
// anything else replaying a long event sequence) pumps windows of
// events through. It produces exactly the same state, BatchResult
// totals, and rejection behavior as ApplyBatch — invariant 3 holds for
// it verbatim, and the 26-seed shard differential suite runs against
// it — but the serial path amortizes validation: instead of
// re-deriving the full validation context per event, one prevalidation
// pass walks the window against an overlay of the pre-window state
// (the same overlay discipline the sharded router uses in route()),
// and the apply loop then skips per-event validation entirely.
//
// The overlay is sound because validation depends on exactly two
// pieces of mutable state — which users are active and which APs are
// down — and every event's effect on those is a pure function of the
// event itself once it is known to be valid: a join activates its
// user, a leave deactivates it, ap_down/ap_up flip the AP, and
// moves/demand changes touch neither. So validating event i against
// the overlay of events 0..i-1 is identical to validating it after
// actually applying them, which is what the serial ApplyBatch does.

// ApplyStream validates and applies events in order like ApplyBatch
// (same state, same totals, same first-error rejection with Applied =
// the rejected index), amortizing validation across the batch on the
// serial engine. Sharded engines delegate to ApplyBatch, whose router
// already validates the batch in one overlay pass.
func (e *Engine) ApplyStream(events []Event) (BatchResult, error) {
	if e.nShards > 1 {
		return e.ApplyBatch(events)
	}
	var br BatchResult
	vStart := e.now()
	e.batchStartNS = vStart.UnixNano()
	n, verr := e.prevalidate(events)
	e.observeStage(stageValidate, vStart, n)
	for i := 0; i < n; i++ {
		res, err := e.applyValidated(events[i])
		if err != nil {
			// Internal (post-validation) error: the prefix stays
			// applied, exactly like ApplyBatch.
			br.Applied = i
			e.deriveMulti()
			e.updateGauges()
			return br, err
		}
		br.Applied++
		br.Redecisions += res.Redecisions
		br.Moves += res.Moves
		br.Orphaned += res.Orphaned
		if res.Truncated {
			br.Truncated++
		}
	}
	rStart := e.now()
	e.deriveMulti()
	e.updateGauges()
	e.observeStage(stageReduce, rStart, n)
	return br, verr
}

// prevalidate checks events in order against the reusable overlay of
// the pre-batch state, returning how many form the valid prefix and
// the first validation error (nil when all pass). Mirrors the overlay
// maintenance in route(); the rejected event counts once, matching the
// serial per-event path.
func (e *Engine) prevalidate(events []Event) (int, error) {
	if e.vAct == nil {
		e.vAct = make(map[int]bool)
		e.vDwn = make(map[int]bool)
	}
	act, dwn := e.vAct, e.vDwn
	clear(act)
	clear(dwn)
	for i, ev := range events {
		if err := e.validateWith(ev, act, dwn); err != nil {
			e.metrics.rejected.Inc()
			return i, err
		}
		switch ev.Kind {
		case UserJoin:
			act[ev.User] = true
		case UserLeave:
			act[ev.User] = false
		case APDown:
			dwn[ev.AP] = true
		case APUp:
			dwn[ev.AP] = false
		}
	}
	return len(events), nil
}
