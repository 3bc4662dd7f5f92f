package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"wlanmcast/internal/core"
	"wlanmcast/internal/geom"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/wlan"
)

// churnSetup builds a network with capacity user slots plus a
// matching trace, both from one seed.
func churnSetup(t *testing.T, seed int64, aps, capacity, initial, sessions, events int) (*wlan.Network, []Event) {
	t.Helper()
	p := scenario.PaperDefaults()
	p.NumAPs = aps
	p.NumUsers = capacity
	p.NumSessions = sessions
	p.Seed = seed
	n, err := scenario.GenerateNetwork(p)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := GenTrace(TraceParams{
		Seed:          seed,
		Events:        events,
		Area:          p.Area,
		Users:         capacity,
		InitialActive: initial,
		Sessions:      sessions,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, trace
}

func newEngine(t *testing.T, n *wlan.Network, cfg Config) *Engine {
	t.Helper()
	e, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// applyAll applies events as one batch and fails on any error, naming
// the offending event.
func applyAll(tb testing.TB, e *Engine, events []Event) BatchResult {
	tb.Helper()
	br, err := e.ApplyBatch(events)
	if err != nil {
		ev := events[br.Applied]
		tb.Fatalf("event %d (%s user %d): %v", br.Applied, ev.Kind, ev.User, err)
	}
	return br
}

func TestEngineEventSemantics(t *testing.T) {
	p := scenario.PaperDefaults()
	p.NumAPs = 20
	p.NumUsers = 30
	p.NumSessions = 3
	p.Seed = 7
	n, err := scenario.GenerateNetwork(p)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, n, Config{Objective: core.ObjMLA, ActiveUsers: 20})

	if e.ActiveUsers() != 20 {
		t.Fatalf("ActiveUsers = %d, want 20", e.ActiveUsers())
	}
	if err := n.Validate(e.Snapshot(), false); err != nil {
		t.Fatalf("initial association invalid: %v", err)
	}
	for u := 20; u < 30; u++ {
		if e.Snapshot().APOf(u) != wlan.Unassociated {
			t.Fatalf("inactive user %d is associated", u)
		}
	}

	// Join an inactive slot next to AP 0: it must end up associated.
	join := Event{Kind: UserJoin, User: 25, Pos: n.APs[0].Pos, Session: 1}
	if _, err := e.Apply(join); err != nil {
		t.Fatalf("join: %v", err)
	}
	if !e.Active(25) || e.ActiveUsers() != 21 {
		t.Fatalf("join did not activate user 25 (active=%v n=%d)", e.Active(25), e.ActiveUsers())
	}
	if e.Snapshot().APOf(25) == wlan.Unassociated {
		t.Fatal("joined user next to an AP stayed unassociated")
	}
	if got := n.UserSession(25); got != 1 {
		t.Fatalf("joined user session = %d, want 1", got)
	}

	// Demand change flips the session and keeps the association valid.
	if _, err := e.Apply(Event{Kind: DemandChange, User: 25, Session: 2}); err != nil {
		t.Fatalf("demand: %v", err)
	}
	if got := n.UserSession(25); got != 2 {
		t.Fatalf("session after demand change = %d, want 2", got)
	}
	if err := n.Validate(e.Snapshot(), false); err != nil {
		t.Fatalf("association after demand change invalid: %v", err)
	}

	// Move out of everyone's range: the user detaches but stays active.
	far := geom.Point{X: -1e6, Y: -1e6}
	if _, err := e.Apply(Event{Kind: UserMove, User: 25, Pos: far}); err != nil {
		t.Fatalf("move: %v", err)
	}
	if e.Snapshot().APOf(25) != wlan.Unassociated {
		t.Fatal("user moved out of range is still associated")
	}
	if !e.Active(25) {
		t.Fatal("user moved out of range was deactivated")
	}

	// Leave deactivates and detaches.
	if _, err := e.Apply(Event{Kind: UserLeave, User: 25}); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if e.Active(25) || e.ActiveUsers() != 20 {
		t.Fatal("leave did not deactivate")
	}
	if n.Coverable(25) {
		t.Fatal("left user still has neighbor APs")
	}

	st := e.Stats()
	if st.Joins != 1 || st.Leaves != 1 || st.UserMoves != 1 || st.DemandChanges != 1 {
		t.Fatalf("stats = %+v, want one event per kind", st)
	}
	if st.Latency.Count != 4 {
		t.Fatalf("latency count = %d, want 4", st.Latency.Count)
	}
}

func TestEngineRejectsInvalidEvents(t *testing.T) {
	n, _ := churnSetup(t, 3, 10, 20, 15, 3, 0)
	e := newEngine(t, n, Config{ActiveUsers: 15})
	cases := []Event{
		{Kind: UserJoin, User: 0, Pos: geom.Point{X: 1, Y: 1}, Session: 0}, // already active
		{Kind: UserLeave, User: 16},                                        // not active
		{Kind: UserMove, User: 16, Pos: geom.Point{X: 1, Y: 1}},            // not active
		{Kind: DemandChange, User: 0, Session: 99},                         // unknown session
		{Kind: UserJoin, User: 16, Pos: geom.Point{X: 1, Y: 1}, Session: -1},
		{Kind: "bogus", User: 0},
		{Kind: UserLeave, User: -1},
		{Kind: UserLeave, User: 1000},
		{Kind: APDown, User: -1, AP: -1}, // negative AP
		{Kind: APDown, User: -1, AP: 99}, // unknown AP
		{Kind: APUp, User: -1, AP: 0},    // AP is not down
	}
	before := e.Snapshot()
	for _, ev := range cases {
		_, err := e.Apply(ev)
		if err == nil {
			t.Errorf("Apply(%+v) succeeded, want error", ev)
			continue
		}
		var ie *InvalidEventError
		if !errors.As(err, &ie) {
			t.Errorf("Apply(%+v) error %v is not an *InvalidEventError", ev, err)
		} else if ie.Event.Kind != ev.Kind {
			t.Errorf("InvalidEventError.Event.Kind = %q, want %q", ie.Event.Kind, ev.Kind)
		}
	}
	if !e.Snapshot().Equal(before) {
		t.Error("rejected events changed the association")
	}
	if got := e.Stats().Rejected; got != uint64(len(cases)) {
		t.Errorf("Rejected = %d, want %d", got, len(cases))
	}
	// Double-down is rejected statefully: down it once, try again.
	if _, err := e.Apply(Event{Kind: APDown, User: -1, AP: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Event{Kind: APDown, User: -1, AP: 0}); err == nil {
		t.Error("double ap_down accepted")
	}
	if _, err := e.Apply(Event{Kind: APUp, User: -1, AP: 0}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Rejected; got != uint64(len(cases))+1 {
		t.Errorf("Rejected = %d, want %d", got, len(cases)+1)
	}
}

// TestEngineDeterminism is the acceptance criterion: identical
// (seed, event trace) pairs yield byte-identical association
// snapshots at every point of the stream, in both modes.
func TestEngineDeterminism(t *testing.T) {
	for _, mode := range []Mode{ModeIncremental, ModeFullRecompute} {
		for _, obj := range []core.Objective{core.ObjMLA, core.ObjBLA} {
			t.Run(fmt.Sprintf("mode=%d/%s", mode, obj), func(t *testing.T) {
				mk := func() (*Engine, []Event) {
					n, trace := churnSetup(t, 42, 25, 60, 40, 4, 80)
					return newEngine(t, n, Config{Objective: obj, Mode: mode, ActiveUsers: 40}), trace
				}
				e1, trace := mk()
				e2, _ := mk()
				for i, ev := range trace {
					if _, err := e1.Apply(ev); err != nil {
						t.Fatalf("e1 event %d: %v", i, err)
					}
					if _, err := e2.Apply(ev); err != nil {
						t.Fatalf("e2 event %d: %v", i, err)
					}
					b1, err := json.Marshal(e1.Snapshot())
					if err != nil {
						t.Fatal(err)
					}
					b2, err := json.Marshal(e2.Snapshot())
					if err != nil {
						t.Fatal(err)
					}
					if string(b1) != string(b2) {
						t.Fatalf("snapshots diverge after event %d:\n%s\n%s", i, b1, b2)
					}
				}
			})
		}
	}
}

// TestEngineIncrementalMatchesFullRerun is the acceptance criterion:
// after a churn trace, the incremental engine's max and total load
// match a full distributed re-run over the same final network state
// within the hysteresis bound, on three seeded scenarios.
func TestEngineIncrementalMatchesFullRerun(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			n, trace := churnSetup(t, seed, 30, 80, 55, 4, 120)
			e := newEngine(t, n, Config{Objective: core.ObjMLA, ActiveUsers: 55})
			applyAll(t, e, trace)
			if err := n.Validate(e.Snapshot(), false); err != nil {
				t.Fatalf("incremental association invalid: %v", err)
			}

			// Full sequential re-run from scratch over the same
			// (mutated) network state.
			d := &core.Distributed{Objective: core.ObjMLA}
			full, err := d.Run(n)
			if err != nil {
				t.Fatal(err)
			}

			// Every active user must be h-stable, so the aggregate
			// loads can drift from the from-scratch equilibrium by at
			// most the hysteresis threshold per active user.
			bound := e.Hysteresis()*float64(e.ActiveUsers()) + 1e-9
			if diff := math.Abs(n.TotalLoad(e.Snapshot()) - n.TotalLoad(full)); diff > bound {
				t.Errorf("total load drift %.4f exceeds hysteresis bound %.4f (inc %.4f, full %.4f)",
					diff, bound, n.TotalLoad(e.Snapshot()), n.TotalLoad(full))
			}
			if diff := math.Abs(n.MaxLoad(e.Snapshot()) - n.MaxLoad(full)); diff > bound {
				t.Errorf("max load drift %.4f exceeds hysteresis bound %.4f (inc %.4f, full %.4f)",
					diff, bound, n.MaxLoad(e.Snapshot()), n.MaxLoad(full))
			}
			// Both serve comparable user counts.
			if inc, fl := e.Snapshot().SatisfiedCount(), full.SatisfiedCount(); inc < fl-2 {
				t.Errorf("incremental serves %d users, full re-run %d", inc, fl)
			}
		})
	}
}

// TestEngineStability pins invariant 2: immediately after Apply, no
// active user can improve its objective beyond the hysteresis
// threshold — re-deciding everyone changes nothing.
func TestEngineStability(t *testing.T) {
	n, trace := churnSetup(t, 11, 20, 50, 35, 3, 60)
	e := newEngine(t, n, Config{Objective: core.ObjMLA, ActiveUsers: 35})
	applyAll(t, e, trace)
	d := &core.Distributed{
		Objective:  core.ObjMLA,
		Hysteresis: e.Hysteresis(),
		Start:      e.Snapshot(),
	}
	res, err := d.RunDetailed(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 0 {
		t.Errorf("engine state is not hysteresis-stable: full pass made %d moves", res.Moves)
	}
}

func TestEngineTrackerConsistency(t *testing.T) {
	n, trace := churnSetup(t, 5, 15, 40, 30, 3, 100)
	e := newEngine(t, n, Config{Objective: core.ObjBLA, ActiveUsers: 30})
	applyAll(t, e, trace)
	// The tracker's cached loads must equal loads recomputed from the
	// association after 100 mutations, bit for bit.
	snap := e.Snapshot()
	loads := e.APLoads()
	for ap := 0; ap < n.NumAPs(); ap++ {
		if want := n.APLoad(snap, ap); loads[ap] != want {
			t.Fatalf("AP %d tracked load %v, recomputed %v", ap, loads[ap], want)
		}
	}
	if e.TotalLoad() != n.TotalLoad(snap) {
		t.Fatalf("tracked total %v, recomputed %v", e.TotalLoad(), n.TotalLoad(snap))
	}
	if e.MaxLoad() != n.MaxLoad(snap) {
		t.Fatalf("tracked max %v, recomputed %v", e.MaxLoad(), n.MaxLoad(snap))
	}
}

func TestEngineSetAssoc(t *testing.T) {
	n, _ := churnSetup(t, 9, 10, 20, 15, 3, 0)
	e := newEngine(t, n, Config{ActiveUsers: 15})

	good := e.Snapshot()
	if err := e.SetAssoc(good); err != nil {
		t.Fatalf("SetAssoc(valid): %v", err)
	}

	bad := wlan.NewAssoc(20)
	bad.Associate(17, 0) // inactive user
	if err := e.SetAssoc(bad); err == nil {
		t.Error("SetAssoc accepted an association for an inactive user")
	}
	bad2 := wlan.NewAssoc(20)
	bad2.Associate(0, 9999)
	if err := e.SetAssoc(bad2); err == nil {
		t.Error("SetAssoc accepted an out-of-range AP")
	}
}

func TestEngineRejectsBasicRateOnly(t *testing.T) {
	n, _ := churnSetup(t, 1, 5, 10, 5, 2, 0)
	n.BasicRateOnly = true
	if _, err := New(n, Config{}); err == nil {
		t.Fatal("New accepted a basic-rate-only network")
	}
}
