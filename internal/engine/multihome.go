package engine

import (
	"fmt"
	"sort"

	"wlanmcast/internal/core"
	"wlanmcast/internal/wlan"
)

// Multi-homing (Config.MaxHomes > 1) layers multi-connectivity
// (arXiv 2305.15252) on top of the single-AP engine without touching
// its hot path: the engine keeps deciding every user's *primary* AP
// exactly as before — bit-identically, which the degree-1
// differential suite pins — and after every API call derives up to
// MaxHomes-1 *secondary* homes per user, with the result of
// core.AugmentHomes(network, primaries, previous secondaries).
//
// The derivation is incremental and exact. Beside the primary tracker
// e.tr, whose primary-only loads the decisions read, the engine keeps
// a second wlan.Tracker, e.mh, capped at MaxHomes and holding every
// user's home set (primary plus secondaries) as of the last call.
// During a call the engine logs the users whose primary, position,
// session or activity it changed, the users holding a home on an AP it
// took down, and the APs it brought up. At the end of the call
// deriveMulti replaces the home sets of the logged (changed) users
// with their pass-1 set (core.KeptHomes), then runs the pass-2 fill
// (core.FillHomes) over the dirty users only: the changed ones plus
// everyone covered by an AP that lost an occupancy cell or came back
// up. Nobody else can differ from a full re-derivation: pass 1 is
// local to each user, so an unchanged user's pass-1 set is its old
// set; and pass 2 only adds homes, so every neighbour AP of a clean
// user holds a superset of its old occupancy, and the tracker's
// exact loads are monotone in that set — a clean user whose fill
// failed last call fails again. TestEngineMultihomeIncrementalExact
// checks the equality after every call.
//
// The derivation is a deterministic function of (primary association,
// previous secondary sets, network up/down state), so it inherits the
// engine's two structural guarantees: the primary association is
// deterministic (invariant 3), hence so are the derived sets of the
// same calls; and re-deriving from persisted sets is a fixed point,
// hence crash recovery lands on the identical state. Install and
// restore paths derive from scratch with every user dirty
// (installMulti). In ModeFullRecompute every call does, with the
// previous sets ignored (prev=nil), making the multi-home state a pure
// function of the current network + primary — which is what makes
// fault→recover provably return to the never-failed state.
//
// Degradation semantics: when a user's primary AP fails and budgets
// block single-AP rehoming, its surviving grandfathered secondaries
// keep it served at a reduced aggregate rate instead of orphaning it.
// Secondary admission is always budget-bounded; grandfathered
// survivors are kept without a budget re-check (availability over
// admission strictness during an outage).

// multihomeOn reports whether secondary-home derivation is active.
func (e *Engine) multihomeOn() bool { return e.cfg.MaxHomes > 1 }

// MaxHomes returns the effective per-user AP-set cap (1 = single-AP).
func (e *Engine) MaxHomes() int {
	if e.cfg.MaxHomes < 1 {
		return 1
	}
	return e.cfg.MaxHomes
}

// touch logs user u as changed in this call for the derivation.
func (e *Engine) touch(u int) {
	if e.multihomeOn() {
		e.mhTouched = append(e.mhTouched, u)
	}
}

// deriveMulti is the post-apply derivation step reduce runs before
// refreshing the gauges, once per call (per event for Apply, once per
// batch for ApplyBatch — the derivation granularity is the API call,
// not the event). It re-derives the users the call touched, as the comment at
// the top of this file describes; no-op while MaxHomes <= 1.
func (e *Engine) deriveMulti() {
	if !e.multihomeOn() {
		return
	}
	if e.cfg.Mode == ModeFullRecompute {
		e.installMulti(nil)
		return
	}
	// dirtyAPs collects the APs whose coverage is dirty: those brought
	// up, then those a changed user gave up an occupancy cell on.
	dirty, dirtyAPs := e.mhDirty[:0], e.mhDirtyAPs[:0]
	for _, u := range e.mhTouched {
		dirty = e.markDirty(dirty, u)
	}
	dirtyAPs = append(dirtyAPs, e.mhUp...)
	e.mhTouched, e.mhUp = e.mhTouched[:0], e.mhUp[:0]
	for _, u := range dirty {
		prev := e.mhPrev[:0]
		for _, ap := range e.mh.Homes(u) {
			if ap != e.mhPrim[u] {
				prev = append(prev, ap)
			}
		}
		p := e.tr.APOf(u)
		e.mhKept = core.KeptHomes(e.n, u, p, prev, e.cfg.MaxHomes, e.mhKept)
		var err error
		if dirtyAPs, err = e.mh.ReplaceHomes(u, e.mhKept, dirtyAPs); err != nil {
			// Primaries are engine-maintained (never down, never out of
			// range) and KeptHomes keeps only live links, so this is a
			// broken engine invariant, not an input error.
			panic(fmt.Sprintf("engine: multi-home derivation: user %d: %v", u, err))
		}
		e.mhPrev, e.mhPrim[u] = prev, p
	}
	for _, a := range dirtyAPs {
		for _, v := range e.n.Coverage(a) {
			dirty = e.markDirty(dirty, v)
		}
	}
	sort.Ints(dirty)
	if err := core.FillHomes(e.n, e.mh, dirty, e.cfg.MaxHomes); err != nil {
		panic(fmt.Sprintf("engine: multi-home derivation: %v", err))
	}
	for _, u := range dirty {
		e.mhMark[u] = false
	}
	e.mhDirty, e.mhDirtyAPs = dirty, dirtyAPs
}

// markDirty appends u to dirty unless it is already there.
func (e *Engine) markDirty(dirty []int, u int) []int {
	if e.mhMark[u] {
		return dirty
	}
	e.mhMark[u] = true
	return append(dirty, u)
}

// installMulti derives every user's home set from scratch — the
// install, restore and ModeFullRecompute step — grandfathering prev
// (nil for none). No-op while MaxHomes <= 1.
func (e *Engine) installMulti(prev [][]int) {
	if !e.multihomeOn() {
		return
	}
	primary := e.Snapshot()
	tr, err := core.DeriveHomes(e.n, primary, prev, e.cfg.MaxHomes)
	if err != nil {
		panic(fmt.Sprintf("engine: multi-home derivation: %v", err))
	}
	e.mh = tr
	if e.mhPrim == nil {
		e.mhPrim = make([]int, e.n.NumUsers())
		e.mhMark = make([]bool, e.n.NumUsers())
	}
	for u := range e.mhPrim {
		e.mhPrim[u] = primary.APOf(u)
	}
	e.mhTouched, e.mhUp = e.mhTouched[:0], e.mhUp[:0]
}

// secondaryOf returns a copy of user u's secondary homes (nil for none
// or while MaxHomes <= 1).
func (e *Engine) secondaryOf(u int) []int {
	if !e.multihomeOn() {
		return nil
	}
	var sec []int
	for _, ap := range e.mh.Homes(u) {
		if ap != e.mhPrim[u] {
			sec = append(sec, ap)
		}
	}
	return sec
}

// homes returns the tracker of every user's home set: e.mh while
// multi-homing, else the primary tracker, whose one home per user is
// the whole set.
func (e *Engine) homes() *wlan.Tracker {
	if e.multihomeOn() {
		return e.mh
	}
	return e.tr
}

// MultiSnapshot returns a copy of the current multi-association:
// every user's primary AP merged with its derived secondary homes,
// sorted ascending. With MaxHomes <= 1 it is exactly the single-AP
// Snapshot lifted to sets. Identical (network, config, event
// sequence) inputs yield byte-identical JSON-marshalled snapshots at
// every point in the stream.
func (e *Engine) MultiSnapshot() *wlan.MultiAssoc { return e.homes().MultiAssoc() }

// MultiSatisfied returns how many users have at least one home — the
// single-AP satisfied count while MaxHomes <= 1. It reads a cached
// count; no snapshot is built.
func (e *Engine) MultiSatisfied() int { return e.homes().Satisfied() }

// SetMultiAssoc force-installs an externally supplied
// multi-association (the assocd PUT /v1/multiassoc path). Validation
// is complete before any state moves, so a rejected install leaves
// the engine untouched (the FuzzDecodeMultiAssoc contract). The
// install is normalized: each user's primary becomes the
// strongest-signal member of its AP set (deterministic), the rest are
// installed as secondaries and grandfathered by the next derivation —
// which may also add further budget-admissible homes, exactly as it
// would have around live events.
func (e *Engine) SetMultiAssoc(ma *wlan.MultiAssoc) error {
	if err := e.n.ValidateMulti(ma, e.cfg.EnforceBudget); err != nil {
		return err
	}
	maxHomes := e.MaxHomes()
	for u := 0; u < ma.NumUsers(); u++ {
		if d := ma.Degree(u); d > maxHomes {
			return fmt.Errorf("engine: user %d has %d homes, MaxHomes is %d", u, d, maxHomes)
		}
		if ma.Degree(u) > 0 && !e.active[u] {
			return fmt.Errorf("engine: multi-association assigns inactive user %d", u)
		}
	}
	primary := wlan.NewAssoc(ma.NumUsers())
	sec := make([][]int, ma.NumUsers())
	for u := 0; u < ma.NumUsers(); u++ {
		homes := ma.Homes(u)
		if len(homes) == 0 {
			continue
		}
		p := core.StrongestOf(e.n, u, homes)
		primary.Associate(u, p)
		for _, ap := range homes {
			if ap != p {
				sec[u] = append(sec[u], ap)
			}
		}
	}
	if err := e.seedTracker(primary); err != nil {
		return err
	}
	e.installMulti(sec)
	e.updateGauges()
	return nil
}
