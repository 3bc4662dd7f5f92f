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

// validate is the engine's one validator, the first step of every
// batch. It checks events in order without mutating anything and
// returns how many form the valid prefix plus the first
// *InvalidEventError (nil when all pass), which it counts once in
// Stats.Rejected. The prefix then applies exactly as a shorter batch
// would, so a rejected event never touches state.
//
// Each event is checked against an overlay of the pre-batch state,
// e.vAct/e.vDwn: which users earlier events of the batch made
// (in)active and which APs they took down or up, falling through to
// the live state for everything untouched. The overlay is sound
// because validation depends on exactly those two pieces of mutable
// state, and every valid event's effect on them is a pure function of
// the event itself: a join activates its user, a leave deactivates it,
// ap_down/ap_up flip the AP, and moves/demand changes touch neither.
// So validating event i against the overlay of events 0..i-1 is
// identical to validating it after actually applying them. The maps
// are reused across batches (cleared, buckets retained), so
// validation allocates nothing.
func (e *Engine) validate(events []Event) (int, error) {
	if e.vAct == nil {
		e.vAct, e.vDwn = make(map[int]bool), make(map[int]bool)
	}
	act, dwn := e.vAct, e.vDwn
	clear(act)
	clear(dwn)
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
	for i, ev := range events {
		reason := ""
		switch ev.Kind {
		case UserJoin, UserLeave, UserMove, DemandChange:
			u := ev.User
			switch {
			case u < 0 || u >= e.n.NumUsers():
				reason = fmt.Sprintf("unknown user %d", u)
			case ev.Kind == UserJoin && activeNow(u):
				reason = fmt.Sprintf("user %d is already active", u)
			case ev.Kind != UserJoin && !activeNow(u):
				reason = fmt.Sprintf("user %d is not active", u)
			case (ev.Kind == UserJoin || ev.Kind == DemandChange) && (ev.Session < 0 || ev.Session >= e.n.NumSessions()):
				reason = fmt.Sprintf("unknown session %d", ev.Session)
			case (ev.Kind == UserJoin || ev.Kind == UserMove) && !e.n.Geometric():
				reason = fmt.Sprintf("%s needs a geometric network", ev.Kind)
			}
		case APDown, APUp:
			switch {
			case ev.AP < 0 || ev.AP >= e.n.NumAPs():
				reason = fmt.Sprintf("unknown AP %d", ev.AP)
			case ev.Kind == APDown && downNow(ev.AP):
				reason = fmt.Sprintf("AP %d is already down", ev.AP)
			case ev.Kind == APUp && !downNow(ev.AP):
				reason = fmt.Sprintf("AP %d is not down", ev.AP)
			}
		default:
			reason = "unknown event kind"
		}
		if reason != "" {
			e.metrics.rejected.Inc()
			return i, &InvalidEventError{Event: ev, Reason: reason}
		}
		switch ev.Kind {
		case UserJoin, UserLeave:
			act[ev.User] = ev.Kind == UserJoin
		case APDown, APUp:
			dwn[ev.AP] = ev.Kind == APDown
		}
	}
	return len(events), nil
}

// applyAPDown orphans every user associated with the AP (found through
// its coverage, which lists them only while the AP is up), takes the
// AP down, and queues the orphans for re-decision. Orphans no other AP
// covers simply stay unassociated — degradation, not an error; the
// fault_unsatisfied_users gauge tracks them.
func (e *Engine) applyAPDown(ev Event, res *ApplyResult) error {
	ap := ev.AP
	orphans := e.orphans[:0]
	for _, u := range e.n.Coverage(ap) {
		if e.tr.APOf(u) == ap {
			orphans = append(orphans, u)
		}
	}
	e.orphans = orphans // keep the grown buffer for the next failure
	if e.multihomeOn() {
		// Every user with any home here loses it. The multi tracker is
		// frozen at the last call's state until the derivation step.
		for _, u := range e.n.Coverage(ap) {
			if e.mh.HasHome(u, ap) {
				e.touch(u)
			}
		}
	}
	for _, u := range orphans {
		if err := e.tr.Disassociate(u); err != nil {
			return err
		}
		e.touch(u)
		res.Moves++
		if obs.Active(e.trace) {
			e.trace.Record(obs.Event{Type: obs.EvHandoff, User: u, AP: wlan.Unassociated})
		}
	}
	if err := e.n.DisableAP(ap); err != nil {
		return err
	}
	res.Orphaned = len(orphans)
	// Only the orphans can be improved by the failure: everyone else
	// merely lost a candidate, which never makes moving attractive.
	for _, u := range orphans {
		e.markUser(u)
	}
	return nil
}

// applyAPUp restores the AP and queues every user it now covers — the
// recovered AP is a new candidate for all of them, and unsatisfied
// users in its coverage re-admit through the normal repair pass.
func (e *Engine) applyAPUp(ev Event, res *ApplyResult) error {
	if err := e.n.EnableAP(ev.AP); err != nil {
		return err
	}
	if e.multihomeOn() {
		e.mhUp = append(e.mhUp, ev.AP)
	}
	for _, u := range e.n.Coverage(ev.AP) {
		e.markUser(u)
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
