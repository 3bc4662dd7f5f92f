package engine

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"
	"time"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/wlan"
)

// The apply pipeline.
//
// Every event enters the engine through ApplyBatch — Apply is a batch
// of one, ApplyStream is ApplyBatch — which runs four steps, the same
// for every shard count:
//
//   - Validate (serial): validate (fault.go) checks the batch in order
//     against an overlay of the pre-batch state and cuts it at the
//     first invalid event.
//   - Route (serial, Shards > 1 only): route assigns each valid event
//     to its owning shard's op queue and rewrites any owner-changing
//     event — a cross-shard UserMove, or a UserJoin landing away from
//     the slot's previous owner — into a depart/arrive op pair linked
//     by a handoff channel.
//   - Apply: runOp applies one op — applyPrimary, then repair (a full
//     recompute under ModeFullRecompute), then finish. With Shards > 1
//     one goroutine per shard drains its queue in global event order,
//     and the worklist, tracker and mutation view are all
//     shard-confined; with Shards == 1 the caller's goroutine runs the
//     batch as the single queue, with no goroutine and no channel.
//   - Reduce (serial): after the barrier, reduce folds the worker
//     tallies and active-user deltas, derives the multi-homes and
//     refreshes the gauges from the merged per-shard trackers.
//
// Determinism (invariant 3 in the package doc): events of one shard
// apply in global order on one goroutine; events of different shards
// touch disjoint regions, whose repairs cannot interact (a re-decision
// reads only the user's candidate APs' loads, all in-region), so their
// interleaving is immaterial; and a cross-shard move is ordered by its
// handoff channel — the arrive side blocks until the depart side has
// detached the user. Serially, a cross-region move always detaches
// (the old AP is out of range at the new position, by the partition
// invariant) and re-admits at the destination, which is exactly the
// depart/arrive split. Merged reads (Snapshot, APLoads, TotalLoad)
// read exact loads: each worker's tracker counts its APs' loads in
// integer quanta, so they sum to the same bits for any split. The
// latency histogram and the trace event order are the only observables
// allowed to differ.
//
// Deadlock freedom: handoff channels are buffered with the exact
// per-pair handoff count (sends never block), so a worker can only
// block receiving an arrive at global index g, waiting on a depart
// with the same g. Any cycle of such waits would need strictly
// decreasing global indices around the cycle — impossible.

// BatchResult aggregates what ApplyBatch did.
type BatchResult struct {
	// Applied is how many events were applied. On a validation error
	// it is the index of the rejected event (the prefix before it is
	// fully applied); on an internal error it is best-effort.
	Applied int `json:"applied"`
	// Redecisions and Moves total the per-event costs, matching the
	// serial engine for any shard count.
	Redecisions int `json:"redecisions"`
	Moves       int `json:"moves"`
	// Orphaned totals users disassociated by ap_down events.
	Orphaned int `json:"orphaned,omitempty"`
	// Truncated counts repairs that hit MaxRedecisions. A cross-shard
	// move repairs on both sides and can count twice for one event.
	Truncated int `json:"truncated,omitempty"`
}

// Ops a routed event can become on a shard's queue.
const (
	opApply  uint8 = iota // whole event at the owning shard
	opDepart              // cross-shard move: source half
	opArrive              // cross-shard move: destination half
)

// shardOp is one entry of a shard's routed op queue.
type shardOp struct {
	gidx int32 // index of the event in the batch (global order)
	op   uint8
	peer int32 // counterpart shard for depart/arrive
	ev   Event
}

// handoff is the token a departing shard passes to the arriving one:
// "the user is detached, take over". aborted means the source worker
// failed earlier and could not perform the detach.
type handoff struct {
	user    int32
	aborted bool
}

// ApplyBatch validates and applies events in order, repairing after
// each, then reduces once: one multi-home derivation and one gauge
// refresh per call. Any shard count yields the same state and
// BatchResult totals. On a validation failure the earlier events stay
// applied, the batch stops, and the error reports the offending event;
// Applied tells how far it got.
func (e *Engine) ApplyBatch(events []Event) (BatchResult, error) {
	start := e.now()
	e.batchStartNS = start.UnixNano()
	n, verr := e.validate(events)
	e.observeStage(stageValidate, start, n)
	if e.nShards == 1 {
		w := e.workers[0]
		for i := range events[:n] {
			w.runOp(shardOp{gidx: int32(i), op: opApply, ev: events[i]})
		}
	} else {
		e.runShards(e.route(events[:n]))
	}
	return e.reduce(n, verr)
}

// runShards runs one routed batch on the shard workers, one goroutine
// per non-empty queue, under the stall watchdog when armed, and waits
// for all of them.
func (e *Engine) runShards(queues [][]shardOp) {
	expected := make([]int, e.nShards)
	for s, q := range queues {
		expected[s] = len(q)
		e.metrics.shardQueueDepth.At(s).Set(float64(len(q)))
	}
	var stopWatchdog func()
	if e.cfg.StallTimeout > 0 {
		if e.batchBase == nil {
			e.batchBase = make([]uint64, e.nShards)
		}
		for s, w := range e.workers {
			e.batchBase[s] = w.progress.Load()
		}
		stopWatchdog = e.startWatchdog(expected)
	}
	var wg sync.WaitGroup
	for s, q := range queues {
		if len(q) == 0 {
			continue
		}
		wg.Add(1)
		go func(w *worker, ops []shardOp) {
			defer wg.Done()
			// The pprof labels make CPU profiles attribute samples
			// per shard (go tool pprof -tagfocus shard=3).
			pprof.Do(context.Background(), w.pprofLabels, func(context.Context) {
				for _, op := range ops {
					w.runOp(op)
				}
			})
		}(e.workers[s], q)
	}
	wg.Wait()
	if stopWatchdog != nil {
		stopWatchdog()
	}
	e.hand = nil
}

// reduce is the batch epilogue, the same for every shard count:
// surface the earliest worker error, fold the tallies and active
// deltas, derive the multi-homes, refresh the gauges from the merged
// trackers, and observe the reduce stage. routed is the validated
// prefix length, verr the validation error.
func (e *Engine) reduce(routed int, verr error) (BatchResult, error) {
	start := e.now()
	e.seqBase += uint64(routed)
	var br BatchResult
	var werr error
	wGidx := int32(math.MaxInt32)
	for s, w := range e.workers {
		if w.err != nil && w.errGidx < wGidx {
			werr, wGidx = w.err, w.errGidx
		}
		w.err, w.errGidx, w.waited = nil, 0, false
		br.Redecisions += int(w.tally.redecisions)
		br.Moves += int(w.tally.handoffs)
		br.Orphaned += int(w.tally.orphaned)
		br.Truncated += int(w.tally.truncated)
		e.metrics.applyTally(&w.tally)
		e.nActive += w.dActive
		w.dActive = 0
		e.metrics.shardQueueDepth.At(s).Set(0)
	}
	e.deriveMulti()
	e.updateGauges()
	e.observeStage(stageReduce, start, routed)
	br.Applied = routed
	if werr != nil {
		br.Applied = int(wGidx)
		return br, werr
	}
	return br, verr
}

// route distributes an already-validated batch onto per-shard op
// queues. It also sizes and installs the handoff channels (exact
// per-pair capacity, so sends never block) and maintains shardOfUser —
// safely, because routing is serial and the workers have not started.
func (e *Engine) route(events []Event) [][]shardOp {
	queues := make([][]shardOp, e.nShards)
	handCnt := make([]int, e.nShards*e.nShards)
	for i, ev := range events {
		gidx := int32(i)
		switch ev.Kind {
		case UserJoin, UserMove:
			// Position-carrying events can change the user's owner.
			// When they do, the event becomes a depart/arrive pair —
			// not just for moves: a join after a same-batch leave on
			// another shard needs the same ordering token, or the two
			// workers would race on the user's state.
			src := int(e.shardOfUser[ev.User])
			dst := e.shardForPos(ev.Pos, src)
			if dst == src {
				queues[src] = append(queues[src], shardOp{gidx: gidx, op: opApply, ev: ev})
				break
			}
			queues[src] = append(queues[src], shardOp{gidx: gidx, op: opDepart, peer: int32(dst), ev: ev})
			queues[dst] = append(queues[dst], shardOp{gidx: gidx, op: opArrive, peer: int32(src), ev: ev})
			handCnt[src*e.nShards+dst]++
			e.shardOfUser[ev.User] = int32(dst)
		case UserLeave, DemandChange:
			src := e.shardOfUser[ev.User]
			queues[src] = append(queues[src], shardOp{gidx: gidx, op: opApply, ev: ev})
		case APDown, APUp:
			s := e.shardOfAP[ev.AP]
			queues[s] = append(queues[s], shardOp{gidx: gidx, op: opApply, ev: ev})
		}
	}
	e.hand = make([]chan handoff, e.nShards*e.nShards)
	for k, c := range handCnt {
		if c > 0 {
			e.hand[k] = make(chan handoff, c)
		}
	}
	return queues
}

// shardForPos returns the shard owning the region around pos, or
// fallback when no AP is in range there (the user keeps its current
// owner; it will have no links either way).
func (e *Engine) shardForPos(pos geom.Point, fallback int) int {
	if r := e.part.RegionOf(pos); r >= 0 {
		return e.shardOfRegion[r]
	}
	return fallback
}

// runOp applies one routed op; it is the only code that applies an
// event. Shard workers run it over their queues, and with Shards == 1
// the caller's goroutine runs it over the whole batch. After an
// internal error the worker stops mutating but keeps draining so every
// handoff channel still sees its sends and receives — a peer must
// never be left blocking (see drainOp).
func (w *worker) runOp(op shardOp) {
	e := w.e
	defer w.progress.Add(1)
	if w.err != nil {
		w.drainOp(op)
		return
	}
	start := e.now()
	startNS := start.UnixNano()
	waitNS := max(startNS-e.batchStartNS, 0)
	if !w.waited {
		// queue_wait is one sample per worker per batch (batch start to
		// this worker's first op), so its sum stays within wall time.
		w.waited = true
		if e.spansOn {
			w.localWait.Observe(float64(waitNS) / 1e9)
		}
	}
	seq := e.seqBase + uint64(op.gidx) + 1
	res := ApplyResult{Event: op.ev}
	switch op.op {
	case opApply:
		w.beginSpan(stageApply, op, seq, startNS, waitNS)
		if err := w.applyPrimary(op.ev, &res); err != nil {
			w.fail(op.gidx, err)
		} else if err := w.repair(&res); err != nil {
			w.fail(op.gidx, err)
		} else {
			w.finish(op.ev, &res, start)
		}
		w.endSpan(stageApply, w.localApply, op, seq, startNS, waitNS)
	case opDepart:
		w.beginSpan(stageHandoffDepart, op, seq, startNS, waitNS)
		if err := w.depart(op, &res); err != nil {
			w.fail(op.gidx, err)
		}
		// The source half accounts its repair costs but not the
		// event itself — the arrive side completes (and counts)
		// the move.
		w.tally.redecisions += uint64(res.Redecisions)
		w.tally.handoffs += uint64(res.Moves)
		w.localHandoffs += uint64(res.Moves)
		if res.Truncated {
			w.tally.truncated++
		}
		w.endSpan(stageHandoffDepart, w.localDepart, op, seq, startNS, waitNS)
	case opArrive:
		w.beginSpan(stageHandoffArrive, op, seq, startNS, waitNS)
		if err := w.arrive(op, &res); err != nil {
			w.fail(op.gidx, err)
		} else {
			w.finish(op.ev, &res, start)
		}
		w.endSpan(stageHandoffArrive, w.localArrive, op, seq, startNS, waitNS)
	}
}

// depart is the source half of a cross-shard move: disassociate and
// detach the user, hand it to the destination shard, then repair the
// hole it left. Exactly one handoff is sent on every path — including
// errors — so the arriving worker never blocks forever.
func (w *worker) depart(op shardOp, res *ApplyResult) error {
	e := w.e
	u := op.ev.User
	ch := e.hand[w.id*e.nShards+int(op.peer)]
	ap := w.tr.APOf(u)
	before := 0.0
	w.touch(u)
	if ap != wlan.Unassociated {
		before = w.tr.APLoad(ap)
		if err := w.tr.Disassociate(u); err != nil {
			ch <- handoff{user: int32(u), aborted: true}
			return err
		}
		res.Moves++
		if obs.Active(e.trace) {
			e.trace.Record(obs.Event{Type: obs.EvHandoff, User: u, AP: wlan.Unassociated})
		}
	}
	if err := w.view.DetachUser(u); err != nil {
		ch <- handoff{user: int32(u), aborted: true}
		return err
	}
	// Hand over before repairing: the destination can re-admit the
	// user while this shard fixes its own region.
	ch <- handoff{user: int32(u)}
	if ap != wlan.Unassociated {
		w.markAPIfChanged(ap, before)
	}
	return w.repair(res)
}

// arrive is the destination half: wait for the source to release the
// user, then run the event's normal application — for a move, rehome
// finds the user unassociated (the source detached it) and simply
// installs it at the new position; for a join, the slot activates
// here. The channel receive is the happens-before edge that transfers
// ownership of the user's state between the two workers.
func (w *worker) arrive(op shardOp, res *ApplyResult) error {
	e := w.e
	h := <-e.hand[int(op.peer)*e.nShards+w.id]
	if h.aborted {
		return fmt.Errorf("engine: handoff of user %d from shard %d aborted", op.ev.User, op.peer)
	}
	if err := w.applyPrimary(op.ev, res); err != nil {
		return err
	}
	return w.repair(res)
}

// drainOp keeps the handoff protocol alive after this worker failed:
// peers still send and receive their tokens, with aborted departs so
// the other side fails loudly instead of applying half a move.
func (w *worker) drainOp(op shardOp) {
	e := w.e
	switch op.op {
	case opDepart:
		e.hand[w.id*e.nShards+int(op.peer)] <- handoff{user: int32(op.ev.User), aborted: true}
	case opArrive:
		<-e.hand[int(op.peer)*e.nShards+w.id]
	}
}

// fail records this worker's first internal error and the event it
// happened on.
func (w *worker) fail(gidx int32, err error) {
	w.err = err
	w.errGidx = gidx
}

// finish accounts one completed event: tally counters, the live
// latency histogram (its buckets are atomics), and the churn trace
// (its recorder locks). For a cross-shard move this runs on the
// arriving worker, with that side's repair cost.
func (w *worker) finish(ev Event, res *ApplyResult, start time.Time) {
	e := w.e
	res.Elapsed = e.now().Sub(start)
	w.tally.count(ev.Kind, res)
	w.localEvents++
	w.localHandoffs += uint64(res.Moves)
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
