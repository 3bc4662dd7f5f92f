// Package engine is the online association engine: it keeps one
// wlan.Network + wlan.Tracker pair alive across a stream of churn
// events — users joining, leaving, moving, changing demand — and
// repairs the association incrementally after each event instead of
// recomputing from scratch.
//
// The paper's distributed rules (§5, Lemmas 1–2) are online by
// nature: each user re-decides locally as its neighborhood changes.
// The engine exploits exactly that. An event touches one user; the
// only other users whose decisions can change are those sharing an AP
// whose load moved. The engine keeps a worklist of such affected
// users and re-decides them (lowest user id first, for determinism)
// with core.Distributed.Choose until no one wants to move. A
// hysteresis threshold (Config.Hysteresis) requires every voluntary
// move to improve the objective by more than a fixed margin, which
// damps the Figure-4-style oscillation that pure greedy re-decision
// exhibits under churn.
//
// Invariants the repair loop maintains (see DESIGN.md "Online
// engine"):
//
//  1. The tracker mirrors the association exactly: every mutation of
//     a user's rates or session happens only while that user is
//     disassociated.
//  2. After Apply returns, no active user can improve its objective
//     by more than the hysteresis threshold (a hysteresis-stable
//     equilibrium).
//  3. Applying the same event sequence to the same starting network
//     yields byte-identical association snapshots at every step, for
//     any Config.Mode and any split of the sequence into Apply,
//     ApplyBatch and ApplyStream calls. Every event applies on the
//     caller's goroutine, in order (batch.go holds the pipeline;
//     DESIGN.md "Why the engine is serial" says why there is no
//     parallel path).
package engine

import (
	"fmt"
	"time"

	"wlanmcast/internal/core"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/wlan"
)

// Mode selects how the engine restores equilibrium after an event.
type Mode int

const (
	// ModeIncremental re-decides only the affected users (the hot
	// path; the default).
	ModeIncremental Mode = iota
	// ModeFullRecompute reruns the whole sequential distributed
	// process from scratch after every event — the batch baseline the
	// ext-churn experiment and BenchmarkEngineFullRecompute compare
	// against.
	ModeFullRecompute
)

// DefaultHysteresis is the move-improvement threshold used when
// Config.Hysteresis is zero.
const DefaultHysteresis = 0.01

// Config tunes an Engine.
type Config struct {
	// Objective picks the local re-decision rule (default ObjMLA).
	Objective core.Objective
	// EnforceBudget refuses joins that would exceed an AP's budget.
	EnforceBudget bool
	// Hysteresis is the minimum objective improvement for a voluntary
	// move (0 = DefaultHysteresis, negative = none beyond float
	// noise).
	Hysteresis float64
	// MaxRedecisions caps re-decisions per event as a safety net; the
	// strict-improvement rule already guarantees termination
	// (0 = 100 + 20·users).
	MaxRedecisions int
	// Mode selects incremental repair or the full-recompute baseline.
	Mode Mode
	// Shards is accepted for compatibility and ignored: the engine is
	// serial, and every non-negative value yields the same engine.
	// A negative value is still rejected.
	Shards int
	// ActiveUsers, when positive, marks only the first ActiveUsers
	// slots of the network as initially present; the rest are
	// detached and available for UserJoin events. 0 = all users
	// active.
	ActiveUsers int
	// MaxHomes caps each user's AP-set size for multi-connectivity
	// (arXiv 2305.15252): with MaxHomes > 1 the engine derives up to
	// MaxHomes-1 budget-bounded secondary homes per user after every
	// apply, so an AP failure degrades a user's aggregate rate
	// instead of orphaning it. 0 or 1 = the single-AP engine; the
	// MaxHomes=1 pipeline is bit-identical to it (differential
	// suite). See DESIGN.md "Multi-homing".
	MaxHomes int
	// Now supplies timestamps for the latency metrics (nil =
	// time.Now). It is called only from the goroutine running the
	// engine call. Decisions never depend on it.
	Now func() time.Time
	// Obs receives the engine's metrics (the assocd_* families, plus
	// the distributed rule's algo_* families). nil gets a private
	// registry — instrumentation always runs; Obs only decides who
	// can read it.
	Obs *obs.Registry
	// Trace, when active, receives churn_event and handoff trace
	// events (and conv_round events from full recomputes), plus
	// batch-level span events (validate/reduce). Re-decisions ride
	// churn_event's N rather than an event of their own.
	Trace obs.Recorder
}

// Engine is a long-lived association engine. It is not safe for
// concurrent use — the assocd server serializes access — and it
// starts no goroutines.
type Engine struct {
	n    *wlan.Network
	cfg  Config
	rule *core.Distributed

	active  []bool
	nActive int

	// tr mirrors the association (invariant 1); worklist is the
	// pending re-decision min-heap, inList dedups it.
	tr       *wlan.Tracker
	worklist intHeap
	inList   []bool

	// tally buffers the call's counters; reduce flushes them into the
	// registry once per call.
	tally batchTally

	// orphans is applyAPDown's reusable victim buffer (zero-alloc hot
	// path).
	orphans []int

	// vAct/vDwn are validate's reusable overlay maps (cleared per
	// batch, buckets retained); one is Apply's reusable batch of one.
	vAct, vDwn map[int]bool
	one        [1]Event

	// Multi-homing state (see multihome.go; nil while MaxHomes <= 1):
	// mh holds every user's home set as of the last call, mhPrim the
	// primaries it was derived from; mhTouched logs the users this call
	// changed (see touch), mhUp the APs it brought back up; mhMark,
	// mhDirty, mhDirtyAPs, mhPrev and mhKept are deriveMulti's reusable
	// scratch.
	mh                  *wlan.Tracker
	mhPrim              []int
	mhTouched, mhUp     []int
	mhMark              []bool
	mhDirty, mhDirtyAPs []int
	mhPrev, mhKept      []int

	reg     *obs.Registry
	metrics metrics
	trace   obs.Recorder
	now     func() time.Time

	// localApply stages the apply-stage histogram, flushed by
	// flushStageStats (see span.go).
	localApply *obs.LocalHistogram
}

// New builds an engine over n, detaches the inactive slots, and seeds
// the association with one full sequential distributed run (the
// "load scenario" step). The engine takes ownership of n: the caller
// must not run other algorithms or trackers over it afterwards.
func New(n *wlan.Network, cfg Config) (*Engine, error) {
	e, err := newShell(n, cfg)
	if err != nil {
		return nil, err
	}
	nActive := n.NumUsers()
	if e.cfg.ActiveUsers > 0 {
		nActive = e.cfg.ActiveUsers
	}
	for u := 0; u < n.NumUsers(); u++ {
		if u < nActive {
			e.active[u] = true
			continue
		}
		if err := n.DetachUser(u); err != nil {
			return nil, err
		}
	}
	e.nActive = nActive
	res, err := e.fullRun()
	if err != nil {
		return nil, err
	}
	if err := e.finish(res.Assoc, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// newShell validates cfg, normalizes it, and builds an Engine with
// its rule, registry, and metric families — but no active-user flags
// or tracker yet. New seeds those with a full distributed run;
// RestoreSnapshot seeds them from persisted state instead.
func newShell(n *wlan.Network, cfg Config) (*Engine, error) {
	if cfg.Objective == 0 {
		cfg.Objective = core.ObjMLA
	}
	switch cfg.Objective {
	case core.ObjMNU, core.ObjBLA, core.ObjMLA:
	default:
		return nil, fmt.Errorf("engine: invalid objective %d", int(cfg.Objective))
	}
	if n.BasicRateOnly {
		return nil, fmt.Errorf("engine: basic-rate-only networks are not supported (mutations can change the basic rate under a live tracker)")
	}
	if cfg.Hysteresis == 0 {
		cfg.Hysteresis = DefaultHysteresis
	} else if cfg.Hysteresis < 0 {
		cfg.Hysteresis = 0
	}
	if cfg.MaxRedecisions <= 0 {
		cfg.MaxRedecisions = 100 + 20*n.NumUsers()
	}
	if cfg.ActiveUsers < 0 || cfg.ActiveUsers > n.NumUsers() {
		return nil, fmt.Errorf("engine: ActiveUsers %d out of range for %d user slots", cfg.ActiveUsers, n.NumUsers())
	}
	if cfg.MaxHomes < 0 {
		return nil, fmt.Errorf("engine: negative MaxHomes %d", cfg.MaxHomes)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("engine: negative shard count %d", cfg.Shards)
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		n:   n,
		cfg: cfg,
		rule: &core.Distributed{
			Objective:     cfg.Objective,
			EnforceBudget: cfg.EnforceBudget,
			Hysteresis:    cfg.Hysteresis,
			Obs:           reg,
			Trace:         cfg.Trace,
		},
		active: make([]bool, n.NumUsers()),
		reg:    reg,
		trace:  cfg.Trace,
		now:    cfg.Now,
	}
	// Register the assocd_* families before the first distributed run
	// so the exposition keeps its historical family order.
	e.metrics.register(reg)
	if e.now == nil {
		e.now = time.Now
	}
	return e, nil
}

// finish completes an engine shell around an already-decided
// association: worklist, apply-stage buffer, tracker seeding, the
// multi-home derivation grandfathering prevSec (nil for none), and the
// first gauge refresh.
func (e *Engine) finish(assoc *wlan.Assoc, prevSec [][]int) error {
	e.inList = make([]bool, e.n.NumUsers())
	e.localApply = e.metrics.stageLat.At(stageApply).Local()
	if err := e.seedTracker(assoc); err != nil {
		return err
	}
	e.installMulti(prevSec)
	e.updateGauges()
	return nil
}

// seedTracker installs assoc into a fresh tracker.
func (e *Engine) seedTracker(assoc *wlan.Assoc) error {
	tr, err := wlan.NewTracker(e.n, assoc)
	if err != nil {
		return err
	}
	e.tr = tr
	return nil
}

// updateGauges refreshes the point-in-time gauges after any state
// change. Gauge writes are atomic, so /metrics renders them without
// the engine lock. reduce and every restore and install path end
// here, after their multi-home derivation step.
func (e *Engine) updateGauges() {
	e.metrics.activeUsers.Set(float64(e.nActive))
	e.metrics.apLoadTotal.Set(e.TotalLoad())
	e.metrics.apLoadMax.Set(e.MaxLoad())
	e.metrics.apsDown.Set(float64(e.n.NumAPsDown()))
	e.metrics.unsatisfied.Set(float64(e.nActive - e.Satisfied()))
	mh := e.homes()
	e.metrics.mhSatisfied.Set(float64(mh.Satisfied()))
	e.metrics.mhSecondary.Set(float64(mh.NumHomes() - mh.Satisfied()))
	e.metrics.mhLoadMax.Set(mh.MaxLoad())
	e.flushStageStats()
}

// Registry returns the engine's metrics registry (Config.Obs, or the
// private registry built when none was supplied).
func (e *Engine) Registry() *obs.Registry { return e.reg }

// fullRun executes the sequential distributed process from scratch
// over the current network state.
func (e *Engine) fullRun() (*core.DistributedResult, error) {
	d := *e.rule
	d.Start = nil
	return d.RunDetailed(e.n)
}

// ApplyResult reports what one event cost.
type ApplyResult struct {
	// Event is the applied event.
	Event Event `json:"event"`
	// Redecisions is how many user decisions were re-evaluated.
	Redecisions int `json:"redecisions"`
	// Moves is how many association changes resulted (including the
	// subject user's own attach/detach).
	Moves int `json:"moves"`
	// Truncated reports that the repair hit MaxRedecisions.
	Truncated bool `json:"truncated,omitempty"`
	// Orphaned is how many users an ap_down event disassociated.
	Orphaned int `json:"orphaned,omitempty"`
	// Elapsed is the wall-clock cost of the event.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Apply validates and applies one churn event, then repairs the
// association back to a hysteresis-stable equilibrium. It is ApplyBatch
// over a reused one-event buffer, so the batch totals are exactly this
// event's costs. A validation failure returns a *InvalidEventError
// before any state is touched, so the engine is unchanged (and the
// event counts in Stats.Rejected).
func (e *Engine) Apply(ev Event) (ApplyResult, error) {
	start := e.now()
	e.one[0] = ev
	br, err := e.ApplyBatch(e.one[:])
	return ApplyResult{Event: ev, Redecisions: br.Redecisions, Moves: br.Moves, Truncated: br.Truncated > 0,
		Orphaned: br.Orphaned, Elapsed: e.now().Sub(start)}, err
}

// ApplyStream is ApplyBatch under the name callers replaying long
// event sequences in windows use: same state, same totals, same
// first-error rejection with Applied = the rejected index.
func (e *Engine) ApplyStream(events []Event) (BatchResult, error) {
	return e.ApplyBatch(events)
}

// applyPrimary performs the event's own mutation, marking the subject
// user and any AP whose load changed for re-decision. The event has
// already passed validation; every rate or session mutation happens
// with the subject user disassociated (invariant 1).
func (e *Engine) applyPrimary(ev Event, res *ApplyResult) error {
	u := ev.User
	switch ev.Kind {
	case UserJoin:
		if err := e.n.SetUserSession(u, ev.Session); err != nil {
			return err
		}
		if err := e.n.MoveUser(u, ev.Pos); err != nil {
			return err
		}
		e.active[u] = true
		e.nActive++
		e.markUser(u)
		e.touch(u)

	case UserLeave:
		if ap := e.tr.APOf(u); ap != wlan.Unassociated {
			before := e.tr.APLoad(ap)
			if err := e.tr.Disassociate(u); err != nil {
				return err
			}
			res.Moves++
			if obs.Active(e.trace) {
				e.trace.Record(obs.Event{Type: obs.EvHandoff, User: u, AP: wlan.Unassociated})
			}
			e.markAPIfChanged(ap, before)
		}
		if err := e.n.DetachUser(u); err != nil {
			return err
		}
		e.active[u] = false
		e.nActive--
		e.touch(u)

	case UserMove, DemandChange:
		if err := e.rehome(ev, res); err != nil {
			return err
		}

	case APDown:
		if err := e.applyAPDown(ev, res); err != nil {
			return err
		}

	case APUp:
		if err := e.applyAPUp(ev, res); err != nil {
			return err
		}

	default:
		return fmt.Errorf("engine: unknown event kind %q", ev.Kind)
	}
	return nil
}

// rehome detaches user u from its AP, applies the event's mutation (a
// rate or session change), and re-attaches u to its previous AP when
// that is still feasible — the hysteresis rule then keeps it there
// unless moving is a real improvement, which is what makes churn
// sticky. The mutation dispatch is a switch on the event kind rather
// than a caller-supplied closure so the per-event path stays
// allocation-free.
func (e *Engine) rehome(ev Event, res *ApplyResult) error {
	u := ev.User
	ap := e.tr.APOf(u)
	before := 0.0
	if ap != wlan.Unassociated {
		before = e.tr.APLoad(ap)
		if err := e.tr.Disassociate(u); err != nil {
			return err
		}
	}
	var err error
	switch ev.Kind {
	case UserMove:
		err = e.n.MoveUser(u, ev.Pos)
	case DemandChange:
		err = e.n.SetUserSession(u, ev.Session)
	default:
		err = fmt.Errorf("engine: rehome on %q event", ev.Kind)
	}
	if err != nil {
		// Mutations validate before touching state, so the tracker
		// detach is the only thing to undo.
		if ap != wlan.Unassociated {
			if aerr := e.tr.AddHome(u, ap); aerr != nil {
				return fmt.Errorf("%w (and could not restore association: %v)", err, aerr)
			}
		}
		return err
	}
	if ap != wlan.Unassociated && e.n.Reachable(ap, u) && e.fitsBudget(u, ap) {
		if err := e.tr.AddHome(u, ap); err != nil {
			return err
		}
	} else if ap != wlan.Unassociated {
		res.Moves++ // forced detach counts as a change
		if obs.Active(e.trace) {
			e.trace.Record(obs.Event{Type: obs.EvHandoff, User: u, AP: wlan.Unassociated})
		}
	}
	if ap != wlan.Unassociated {
		e.markAPIfChanged(ap, before)
	}
	e.markUser(u)
	e.touch(u)
	return nil
}

// fitsBudget reports whether u joining ap respects the budget, when
// budget enforcement is on.
func (e *Engine) fitsBudget(u, ap int) bool {
	if !e.cfg.EnforceBudget {
		return true
	}
	l, _, ok := e.tr.LoadIfJoin(u, ap)
	return ok && e.n.WithinBudget(ap, l)
}

// repair drains the worklist: pop the lowest-id affected user, let it
// re-decide with the distributed rule, and when it moves, mark every
// user covered by the two APs whose loads changed. Strict improvement
// beyond the hysteresis threshold bounds the loop (each accepted move
// decreases the objective potential by more than the threshold);
// MaxRedecisions is a safety net. Under ModeFullRecompute it defers to
// fullRepair instead.
func (e *Engine) repair(res *ApplyResult) error {
	if e.cfg.Mode == ModeFullRecompute {
		return e.fullRepair(res)
	}
	for e.worklist.Len() > 0 {
		if res.Redecisions >= e.cfg.MaxRedecisions {
			res.Truncated = true
			e.drainWorklist()
			break
		}
		u := e.worklist.pop()
		e.inList[u] = false
		if !e.active[u] {
			continue
		}
		res.Redecisions++
		cur := e.tr.APOf(u)
		target, improves := e.rule.Choose(e.n, e.tr, u)
		moving := target != wlan.Unassociated && target != cur &&
			(cur == wlan.Unassociated || improves)
		if !moving {
			continue
		}
		var beforeCur float64
		if cur != wlan.Unassociated {
			beforeCur = e.tr.APLoad(cur)
		}
		beforeTarget := e.tr.APLoad(target)
		if err := e.tr.Move(u, target); err != nil {
			return err
		}
		res.Moves++
		e.touch(u)
		if obs.Active(e.trace) {
			e.trace.Record(obs.Event{Type: obs.EvHandoff, User: u, AP: target})
		}
		if cur != wlan.Unassociated {
			e.markAPIfChanged(cur, beforeCur)
		}
		e.markAPIfChanged(target, beforeTarget)
	}
	return nil
}

// fullRepair is the ModeFullRecompute path: rebuild the association
// from scratch with the batch sequential process.
func (e *Engine) fullRepair(res *ApplyResult) error {
	e.drainWorklist()
	detail, err := e.fullRun()
	if err != nil {
		return err
	}
	e.tr, err = wlan.NewTracker(e.n, detail.Assoc)
	if err != nil {
		return err
	}
	res.Redecisions += detail.Rounds * e.nActive
	res.Moves += detail.Moves
	return nil
}

// markUser queues u for re-decision.
func (e *Engine) markUser(u int) {
	if e.inList[u] || !e.active[u] {
		return
	}
	e.inList[u] = true
	e.worklist.push(u)
}

// markAPIfChanged queues every user covered by ap when ap's load
// moved from before — those are exactly the users whose neighborhood
// view changed. Loads are exact, so an unchanged one compares equal.
func (e *Engine) markAPIfChanged(ap int, before float64) {
	if e.tr.APLoad(ap) == before {
		return
	}
	for _, v := range e.n.Coverage(ap) {
		e.markUser(v)
	}
}

func (e *Engine) drainWorklist() {
	for e.worklist.Len() > 0 {
		e.inList[e.worklist.pop()] = false
	}
}

// Satisfied returns the number of currently associated users without
// materializing the association.
func (e *Engine) Satisfied() int { return e.tr.Satisfied() }

// Snapshot returns a copy of the current association. Identical
// (network, config, event sequence) inputs yield byte-identical
// JSON-marshalled snapshots at every point in the stream.
func (e *Engine) Snapshot() *wlan.Assoc { return e.tr.Assoc() }

// Network returns the engine's underlying network. The engine owns
// it: callers must treat it as strictly read-only — mutating it
// silently corrupts the engine's incremental state. Use Snapshot for
// an independent copy of the association, and the
// NumAPs/NumUsers/TotalLoad/MaxLoad/APLoads accessors for the common
// read-outs; reach for Network only when a read-only API (scenario
// export, DecodeAssoc sizing, load recomputation) genuinely needs the
// full model.
func (e *Engine) Network() *wlan.Network { return e.n }

// NumAPs returns the network's AP count.
func (e *Engine) NumAPs() int { return e.n.NumAPs() }

// NumUsers returns the network's user slot count.
func (e *Engine) NumUsers() int { return e.n.NumUsers() }

// ActiveUsers returns how many user slots are currently active.
func (e *Engine) ActiveUsers() int { return e.nActive }

// Active reports whether user slot u is active.
func (e *Engine) Active(u int) bool { return e.active[u] }

// TotalLoad returns the current total multicast load.
func (e *Engine) TotalLoad() float64 { return e.tr.TotalLoad() }

// MaxLoad returns the current maximum AP load.
func (e *Engine) MaxLoad() float64 { return e.tr.MaxLoad() }

// APLoads returns a copy of the per-AP load vector.
func (e *Engine) APLoads() []float64 {
	out := make([]float64, e.n.NumAPs())
	for ap := range out {
		out[ap] = e.tr.APLoad(ap)
	}
	return out
}

// SetAssoc force-installs an externally supplied association (the
// assocd PUT /v1/assoc path). It must be valid for the network; the
// engine does not repair it — follow with events or judge it as-is.
func (e *Engine) SetAssoc(a *wlan.Assoc) error {
	if err := e.n.Validate(a, e.cfg.EnforceBudget); err != nil {
		return err
	}
	for u := 0; u < a.NumUsers(); u++ {
		if a.APOf(u) != wlan.Unassociated && !e.active[u] {
			return fmt.Errorf("engine: association assigns inactive user %d", u)
		}
	}
	var prevSec [][]int
	if e.multihomeOn() {
		prevSec = make([][]int, e.n.NumUsers())
		for u := range prevSec {
			prevSec[u] = e.secondaryOf(u)
		}
	}
	if err := e.seedTracker(a); err != nil {
		return err
	}
	e.installMulti(prevSec)
	e.updateGauges()
	return nil
}

// Stats returns a copy of the engine's counters.
func (e *Engine) Stats() Stats { return e.metrics.snapshot() }

// Hysteresis returns the effective move-improvement threshold.
func (e *Engine) Hysteresis() float64 { return e.cfg.Hysteresis }

// intHeap is a plain int min-heap (container/heap without the
// interface boxing — this sits on the per-event hot path).
type intHeap []int

func (h intHeap) Len() int { return len(h) }

func (h *intHeap) push(v int) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *intHeap) pop() int {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s) && s[l] < s[small] {
			small = l
		}
		if r < len(s) && s[r] < s[small] {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}
