package engine

import (
	"fmt"

	"wlanmcast/internal/fault"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/wlan"
)

// InvalidEventError is the typed rejection Apply returns when an event
// fails validation. The engine's state is guaranteed untouched: every
// check runs before any mutation.
type InvalidEventError struct {
	// Event is the rejected event.
	Event Event
	// Reason says what was wrong with it.
	Reason string
}

func (e *InvalidEventError) Error() string {
	return fmt.Sprintf("engine: invalid %q event: %s", e.Event.Kind, e.Reason)
}

// validateEvent checks ev against the engine's current state without
// mutating anything. Apply rejects on the first violation, so a
// returned *InvalidEventError implies Snapshot() is unchanged.
func (e *Engine) validateEvent(ev Event) error {
	return e.validateWith(ev, nil, nil)
}

// validateWith is validateEvent against an overlay of the mutable
// state: act/dwn record which users went (in)active and which APs went
// (un)down earlier in the batch, falling through to the live state for
// everything untouched (nil maps = pure live state, the serial path).
// The batch router and ApplyStream's prevalidation pass the overlay
// they maintain, so a batch rejects exactly where replaying it
// serially would. Overlay maps rather than closures: this runs once
// per event and must not allocate.
func (e *Engine) validateWith(ev Event, act, dwn map[int]bool) error {
	activeNow := func(u int) bool {
		if v, ok := act[u]; ok {
			return v
		}
		return e.active[u]
	}
	downNow := func(a int) bool {
		if v, ok := dwn[a]; ok {
			return v
		}
		return e.n.APDown(a)
	}
	invalid := func(format string, args ...any) error {
		return &InvalidEventError{Event: ev, Reason: fmt.Sprintf(format, args...)}
	}
	switch ev.Kind {
	case UserJoin, UserLeave, UserMove, DemandChange:
		u := ev.User
		if u < 0 || u >= e.n.NumUsers() {
			return invalid("unknown user %d", u)
		}
		switch ev.Kind {
		case UserJoin:
			if activeNow(u) {
				return invalid("user %d is already active", u)
			}
			if ev.Session < 0 || ev.Session >= e.n.NumSessions() {
				return invalid("unknown session %d", ev.Session)
			}
			if !e.n.Geometric() {
				return invalid("join needs a geometric network")
			}
		case UserLeave:
			if !activeNow(u) {
				return invalid("user %d is not active", u)
			}
		case UserMove:
			if !activeNow(u) {
				return invalid("user %d is not active", u)
			}
			if !e.n.Geometric() {
				return invalid("move needs a geometric network")
			}
		case DemandChange:
			if !activeNow(u) {
				return invalid("user %d is not active", u)
			}
			if ev.Session < 0 || ev.Session >= e.n.NumSessions() {
				return invalid("unknown session %d", ev.Session)
			}
		}
	case APDown:
		if ev.AP < 0 || ev.AP >= e.n.NumAPs() {
			return invalid("unknown AP %d", ev.AP)
		}
		if downNow(ev.AP) {
			return invalid("AP %d is already down", ev.AP)
		}
	case APUp:
		if ev.AP < 0 || ev.AP >= e.n.NumAPs() {
			return invalid("unknown AP %d", ev.AP)
		}
		if !downNow(ev.AP) {
			return invalid("AP %d is not down", ev.AP)
		}
	default:
		return invalid("unknown event kind")
	}
	return nil
}

// applyAPDown orphans every user associated with the AP (disassociated
// while the link still resolves, per the tracker contract), takes the
// AP down, and queues the orphans for re-decision. Orphans no other AP
// covers simply stay unassociated — degradation, not an error; the
// fault_unsatisfied_users gauge tracks them. In sharded mode the AP,
// its covered users, and their tracker rows all live on this worker's
// shard, so the whole cascade is shard-local.
func (w *worker) applyAPDown(ev Event, res *ApplyResult) error {
	e := w.e
	ap := ev.AP
	orphans := w.orphans[:0]
	for _, u := range e.n.Coverage(ap) {
		if w.tr.APOf(u) == ap {
			orphans = append(orphans, u)
		}
	}
	w.orphans = orphans // keep the grown buffer for the next failure
	if e.multihomeOn() {
		// Every user with any home here loses it. The multi tracker is
		// frozen at the last call's state until the derivation step, so
		// concurrent shard workers may read it; the AP's coverage is
		// shard-local.
		for _, u := range e.n.Coverage(ap) {
			if e.mh.HasHome(u, ap) {
				w.touch(u)
			}
		}
	}
	for _, u := range orphans {
		if err := w.tr.Disassociate(u); err != nil {
			return err
		}
		w.touch(u)
		res.Moves++
		if obs.Active(e.trace) {
			e.trace.Record(obs.Event{Type: obs.EvHandoff, User: u, AP: wlan.Unassociated})
		}
	}
	if err := w.view.DisableAP(ap); err != nil {
		return err
	}
	res.Orphaned = len(orphans)
	// Only the orphans can be improved by the failure: everyone else
	// merely lost a candidate, which never makes moving attractive.
	for _, u := range orphans {
		w.markUser(u)
	}
	return nil
}

// applyAPUp restores the AP and queues every user it now covers — the
// recovered AP is a new candidate for all of them, and unsatisfied
// users in its coverage re-admit through the normal repair pass.
func (w *worker) applyAPUp(ev Event, res *ApplyResult) error {
	if err := w.view.EnableAP(ev.AP); err != nil {
		return err
	}
	if w.e.multihomeOn() {
		w.mhUp = append(w.mhUp, ev.AP)
	}
	for _, u := range w.e.n.Coverage(ev.AP) {
		w.markUser(u)
	}
	return nil
}

// MergeFaults interleaves a churn trace with a fault schedule into one
// time-ordered event stream (ties resolve churn first, matching the
// stable order of both inputs). Fault actions become APDown/APUp
// events with User -1. Either input may be nil.
func MergeFaults(events []Event, sched fault.Schedule) []Event {
	out := make([]Event, 0, len(events)+len(sched))
	i, j := 0, 0
	for i < len(events) || j < len(sched) {
		if j >= len(sched) || (i < len(events) && events[i].At <= sched[j].At) {
			out = append(out, events[i])
			i++
			continue
		}
		a := sched[j]
		j++
		kind := APUp
		if a.Down {
			kind = APDown
		}
		out = append(out, Event{Kind: kind, User: -1, AP: a.AP, At: a.At})
	}
	return out
}
