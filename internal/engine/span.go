package engine

// Stage-attributed observability (see DESIGN.md "Stage-attributed
// tracing"). The apply pipeline (shard.go) is instrumented three
// ways, all sourced from the same per-op timestamps:
//
//   - per-stage histograms (assocd_stage_seconds{stage=...}) say
//     where wall-clock goes in aggregate — queue wait vs validate vs
//     apply vs handoff vs reduce;
//   - per-shard labeled counters/gauges (assocd_shard_*) say which
//     shard the work landed on;
//   - the flight recorder keeps the last N spans verbatim, with one
//     open-span slot per worker, so a stall dump can name the exact
//     event a stuck worker is holding.
//
// Per-event observations stage through worker-local buffers
// (obs.LocalHistogram, plain uint64 tallies) and flush at batch
// epilogue, so the per-event cost stays out of the atomic-contention
// regime and the <= 2 allocs/event gate holds with everything on.

import (
	"runtime/pprof"
	"strconv"
	"time"

	"wlanmcast/internal/obs"
)

// Pipeline stages, indexing stageNames and the flight recorder's
// stage table.
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

// StallInfo is what the watchdog hands Config.OnStall when a shard
// worker makes no progress within Config.StallTimeout.
type StallInfo struct {
	// Worker is the stalled shard worker's id.
	Worker int `json:"worker"`
	// Stalled is how long the worker has made no progress.
	Stalled time.Duration `json:"stalled_ns"`
	// Dump is the flight recorder at detection time; Dump.Open holds
	// the span the worker is stuck inside.
	Dump obs.FlightDump `json:"dump"`
}

// Flight returns the engine's flight recorder (nil when
// Config.FlightSpans < 0 disabled it). The recorder is safe to
// snapshot from any goroutine, concurrently with a running batch.
func (e *Engine) Flight() *obs.FlightRecorder { return e.flight }

// setupFlight builds the flight recorder and the per-worker staging
// buffers. Writer 0 belongs to the batch-level stages (validate,
// reduce); worker s writes its op spans as s+1.
func (e *Engine) setupFlight() {
	if e.cfg.FlightSpans >= 0 {
		e.spansOn = true
		e.flight = obs.NewFlightRecorder(e.cfg.FlightSpans, e.nShards+1, stageNames, flightKinds)
	}
	for _, w := range e.workers {
		w.flightWriter = w.id + 1
		w.localWait = e.metrics.stageLat.At(stageQueueWait).Local()
		w.localApply = e.metrics.stageLat.At(stageApply).Local()
		w.localDepart = e.metrics.stageLat.At(stageHandoffDepart).Local()
		w.localArrive = e.metrics.stageLat.At(stageHandoffArrive).Local()
		w.pprofLabels = pprof.Labels("shard", strconv.Itoa(w.id))
	}
}

// beginSpan publishes an open flight span for the op this worker is
// about to run — the stall watchdog's view of "what is this worker
// holding right now".
func (w *worker) beginSpan(stage uint8, op shardOp, seq uint64, startNS, waitNS int64) {
	if !w.e.spansOn {
		return
	}
	w.e.flight.Begin(w.flightWriter, obs.SpanData{
		Stage: stage, Kind: kindIndex(op.ev.Kind), Shard: int32(w.id), User: int32(op.ev.User),
		Seq: seq, StartNS: startNS, WaitNS: waitNS,
	})
}

// endSpan closes the op's span: busy time always accrues, and with
// spans on the stage duration stages into the worker's local histogram
// while the completed span, with its queue wait, enters the flight
// ring.
func (w *worker) endSpan(stage uint8, lh *obs.LocalHistogram, op shardOp, seq uint64, startNS, waitNS int64) {
	e := w.e
	durNS := e.now().UnixNano() - startNS
	w.busyNS += durNS
	if !e.spansOn {
		return
	}
	lh.Observe(float64(durNS) / 1e9)
	e.flight.End(w.flightWriter, obs.SpanData{
		Stage: stage, Kind: kindIndex(op.ev.Kind), Shard: int32(w.id), User: int32(op.ev.User),
		Seq: seq, StartNS: startNS, DurNS: durNS, WaitNS: waitNS,
	})
}

// observeStage records one batch-level stage (validate, reduce) into
// the stage histogram, the flight ring, and the trace as an EvSpan
// carrying the event count. Every call observes both, for any shard
// count.
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

// flushWorkerStats folds every worker's staged per-event observations
// (stage histograms, per-shard tallies, busy time) into the shared
// instruments. Runs serially, once per call, from updateGauges, so
// every public entry point leaves the registry current.
func (e *Engine) flushWorkerStats() {
	for _, w := range e.workers {
		if w.localEvents != 0 {
			e.metrics.shardEvents.At(w.id).Add(w.localEvents)
			w.localEvents = 0
		}
		if w.localHandoffs != 0 {
			e.metrics.shardHandoffs.At(w.id).Add(w.localHandoffs)
			w.localHandoffs = 0
		}
		if w.busyNS != 0 {
			e.metrics.shardBusy[w.id].Add(float64(w.busyNS) / 1e9)
			w.busyNS = 0
		}
		w.localWait.Flush()
		w.localApply.Flush()
		w.localDepart.Flush()
		w.localArrive.Flush()
	}
}

// startWatchdog spawns the stall watchdog for one sharded batch:
// expected[s] is worker s's op-queue length, and a worker whose
// progress counter sits still for Config.StallTimeout while short of
// that is stalled. The returned stop must be called after the batch
// barrier; it blocks until the goroutine exits, so consecutive
// batches never share a watchdog.
//
// Hardening (the retryBackoff school of paranoia): one dump per stall
// episode — the latch rearms only when the worker moves again — plus
// a global minimum gap of StallTimeout between dumps, and OnStall
// runs under recover, so a panicking callback cannot take the batch
// down with it.
func (e *Engine) startWatchdog(expected []int) (stop func()) {
	interval := e.cfg.StallTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		last := make([]uint64, len(e.workers))
		since := make([]time.Time, len(e.workers))
		dumped := make([]bool, len(e.workers))
		now := time.Now()
		for s, w := range e.workers {
			last[s] = w.progress.Load()
			since[s] = now
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stopCh:
				return
			case now = <-ticker.C:
			}
			for s, w := range e.workers {
				p := w.progress.Load()
				if p != last[s] {
					last[s], since[s], dumped[s] = p, now, false
					continue
				}
				if expected[s] == 0 || int(p-e.batchBase[s]) >= expected[s] {
					continue // worker finished its queue
				}
				stalled := now.Sub(since[s])
				if stalled < e.cfg.StallTimeout || dumped[s] {
					continue
				}
				dumped[s] = true
				if now.Sub(e.lastStallDump) < e.cfg.StallTimeout {
					continue // rate limit across episodes/workers
				}
				e.lastStallDump = now
				e.fireStall(s, stalled)
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}
}

// fireStall invokes Config.OnStall with a flight dump, swallowing any
// panic — the watchdog goroutine must never take the engine down.
func (e *Engine) fireStall(worker int, stalled time.Duration) {
	if e.cfg.OnStall == nil {
		return
	}
	defer func() { _ = recover() }()
	e.cfg.OnStall(StallInfo{Worker: worker, Stalled: stalled, Dump: e.flight.Snapshot()})
}

// ShardStat is one shard's read-out in Engine.ShardStats (and the
// per-shard block of the assocd /v1/status response).
type ShardStat struct {
	Shard       int     `json:"shard"`
	Events      uint64  `json:"events"`
	Handoffs    uint64  `json:"handoffs"`
	BusySeconds float64 `json:"busy_seconds"`
	QueueDepth  int     `json:"queue_depth"`
	Load        float64 `json:"load"`
	Users       int     `json:"users"`
}

// ShardStats reads the per-shard series back out: cumulative events,
// handoffs and busy time, the last batch's queue depth, and the
// shard's current load and user count. One entry per shard, ascending.
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, e.nShards)
	for s := range out {
		out[s] = ShardStat{
			Shard:       s,
			Events:      e.metrics.shardEvents.At(s).Value(),
			Handoffs:    e.metrics.shardHandoffs.At(s).Value(),
			BusySeconds: e.metrics.shardBusy[s].Value(),
			QueueDepth:  int(e.metrics.shardQueueDepth.At(s).Value()),
		}
	}
	for s, w := range e.workers {
		out[s].Load = w.tr.TotalLoad()
	}
	if e.nShards == 1 {
		out[0].Users = e.nActive
		return out
	}
	for u, s := range e.shardOfUser {
		if e.active[u] {
			out[s].Users++
		}
	}
	return out
}
