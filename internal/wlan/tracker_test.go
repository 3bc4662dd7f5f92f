package wlan

import (
	"math/rand"
	"testing"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
)

func TestTrackerMatchesRecompute(t *testing.T) {
	// Property: after any random sequence of associate / disassociate /
	// move operations, the tracker's cached loads equal a from-scratch
	// recomputation.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := randomNet(t, rng, 6, 25, 3)
		tr, err := NewTracker(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 200; step++ {
			u := rng.Intn(n.NumUsers())
			nb := n.NeighborAPs(u)
			if len(nb) == 0 {
				continue
			}
			switch rng.Intn(3) {
			case 0: // associate somewhere (if free)
				if tr.APOf(u) == Unassociated {
					if err := tr.Associate(u, nb[rng.Intn(len(nb))]); err != nil {
						t.Fatal(err)
					}
				}
			case 1: // leave
				if tr.APOf(u) != Unassociated {
					if err := tr.Disassociate(u); err != nil {
						t.Fatal(err)
					}
				}
			case 2: // move
				if err := tr.Move(u, nb[rng.Intn(len(nb))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		a := tr.Assoc()
		for ap := 0; ap < n.NumAPs(); ap++ {
			want := n.APLoad(a, ap)
			if got := tr.APLoad(ap); got != want {
				t.Fatalf("trial %d: AP %d tracker load %v, recompute %v", trial, ap, got, want)
			}
		}
		if got, want := tr.TotalLoad(), n.TotalLoad(a); got != want {
			t.Fatalf("trial %d: total %v vs %v", trial, got, want)
		}
		if got, want := tr.MaxLoad(), n.MaxLoad(a); got != want {
			t.Fatalf("trial %d: max %v vs %v", trial, got, want)
		}
	}
}

func TestTrackerWhatIfMatchesApply(t *testing.T) {
	// Property: LoadIfJoin / LoadIfLeave predictions equal the loads
	// observed after actually applying the change.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := randomNet(t, rng, 5, 20, 2)
		tr, err := NewTracker(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Random initial association.
		for u := 0; u < n.NumUsers(); u++ {
			nb := n.NeighborAPs(u)
			if len(nb) > 0 && rng.Intn(2) == 0 {
				if err := tr.Associate(u, nb[rng.Intn(len(nb))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for u := 0; u < n.NumUsers(); u++ {
			// Leave prediction.
			if tr.APOf(u) != Unassociated {
				pred, ap := tr.LoadIfLeave(u)
				cp, err := NewTracker(n, tr.Assoc())
				if err != nil {
					t.Fatal(err)
				}
				if err := cp.Disassociate(u); err != nil {
					t.Fatal(err)
				}
				if cp.APLoad(ap) != pred {
					t.Fatalf("LoadIfLeave(%d) = %v, actual %v", u, pred, cp.APLoad(ap))
				}
			}
			// Join predictions for every neighbor AP.
			for _, ap := range n.NeighborAPs(u) {
				if ap == tr.APOf(u) {
					continue
				}
				pred, ok := tr.LoadIfJoin(u, ap)
				if !ok {
					t.Fatalf("LoadIfJoin(%d,%d) not ok for a neighbor", u, ap)
				}
				cp, err := NewTracker(n, tr.Assoc())
				if err != nil {
					t.Fatal(err)
				}
				if cp.APOf(u) != Unassociated {
					if err := cp.Disassociate(u); err != nil {
						t.Fatal(err)
					}
				}
				if err := cp.Associate(u, ap); err != nil {
					t.Fatal(err)
				}
				if cp.APLoad(ap) != pred {
					t.Fatalf("LoadIfJoin(%d,%d) = %v, actual %v", u, ap, pred, cp.APLoad(ap))
				}
			}
		}
	}
}

func TestTrackerErrors(t *testing.T) {
	n := figure1(t, 1, 1)
	tr, err := NewTracker(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Associate(0, 1); err == nil {
		t.Error("associating out of range should error")
	}
	if err := tr.Disassociate(0); err == nil {
		t.Error("disassociating a free user should error")
	}
	if err := tr.Associate(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Associate(0, 0); err == nil {
		t.Error("double association should error")
	}
	if _, err := NewTracker(n, NewAssoc(2)); err == nil {
		t.Error("size-mismatched seed association should error")
	}
	if l, ap := tr.LoadIfLeave(1); l != 0 || ap != Unassociated {
		t.Error("LoadIfLeave of free user should be (0, Unassociated)")
	}
	if _, ok := tr.LoadIfJoin(0, 1); ok {
		t.Error("LoadIfJoin out of range should report not ok")
	}
}

func TestTrackerSeededFromAssoc(t *testing.T) {
	n := figure1(t, 1, 1)
	a := NewAssoc(5)
	a.Associate(0, 0)
	a.Associate(2, 1)
	tr, err := NewTracker(n, a)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Assoc().Equal(a) {
		t.Error("tracker does not reproduce the seed association")
	}
	if tr.APLoad(0) != n.APLoad(a, 0) {
		t.Error("seeded tracker load mismatch")
	}
}

func TestTrackerMoveNoop(t *testing.T) {
	n := figure1(t, 1, 1)
	tr, err := NewTracker(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Associate(2, 0); err != nil {
		t.Fatal(err)
	}
	before := tr.APLoad(0)
	if err := tr.Move(2, 0); err != nil {
		t.Fatal(err)
	}
	if tr.APLoad(0) != before || tr.APOf(2) != 0 {
		t.Error("Move to the same AP must be a no-op")
	}
}

// TestTrackerMove pins Move's three cases against loads computed from
// scratch: between two APs, to the user's current AP, and of an
// unassociated user.
func TestTrackerMove(t *testing.T) {
	n := figure1(t, 1, 1)
	want := NewAssoc(5)
	for u, ap := range []int{0, 0, 0, 1} {
		want.Associate(u, ap)
	}
	tr, err := NewTracker(n, want)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, satisfied int) {
		t.Helper()
		if !tr.Assoc().Equal(want) {
			t.Fatalf("%s: association %v, want %v", step, tr.Assoc(), want)
		}
		if tr.Satisfied() != satisfied {
			t.Fatalf("%s: Satisfied = %d, want %d", step, tr.Satisfied(), satisfied)
		}
		for ap := 0; ap < n.NumAPs(); ap++ {
			if got, exp := tr.APLoad(ap), n.APLoad(want, ap); got != exp {
				t.Fatalf("%s: AP %d load %v, want %v", step, ap, got, exp)
			}
		}
		if got, exp := tr.TotalLoad(), n.TotalLoad(want); got != exp {
			t.Fatalf("%s: total load %v, want %v", step, got, exp)
		}
	}
	for _, m := range []struct {
		step      string
		u, ap     int
		satisfied int
	}{
		{"move between APs", 2, 1, 4},
		{"move to the current AP", 2, 1, 4},
		{"move back", 2, 0, 4},
		{"move of an unassociated user", 4, 1, 5},
	} {
		if err := tr.Move(m.u, m.ap); err != nil {
			t.Fatalf("%s: %v", m.step, err)
		}
		want.Associate(m.u, m.ap)
		check(m.step, m.satisfied)
	}
}

func TestAPLoadMonotoneInUsers(t *testing.T) {
	// Property: associating one more user with an AP never decreases
	// that AP's load (the transmission set only grows and per-session
	// rates only drop).
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		n := randomNet(t, rng, 6, 25, 3)
		tr, err := NewTracker(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n.NumUsers(); u++ {
			nb := n.NeighborAPs(u)
			if len(nb) == 0 {
				continue
			}
			ap := nb[rng.Intn(len(nb))]
			before := tr.APLoad(ap)
			if err := tr.Associate(u, ap); err != nil {
				t.Fatal(err)
			}
			if after := tr.APLoad(ap); after < before {
				t.Fatalf("trial %d: load of AP %d dropped %v -> %v on join", trial, ap, before, after)
			}
		}
	}
}

func TestLoadVectorSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := randomNet(t, rng, 8, 30, 3)
		a := NewAssoc(n.NumUsers())
		for u := 0; u < n.NumUsers(); u++ {
			if nb := n.NeighborAPs(u); len(nb) > 0 {
				a.Associate(u, nb[rng.Intn(len(nb))])
			}
		}
		v := n.LoadVector(a)
		if len(v) != n.NumAPs() {
			t.Fatalf("vector has %d entries for %d APs", len(v), n.NumAPs())
		}
		sum := 0.0
		for i := range v {
			sum += v[i]
			if i > 0 && v[i] > v[i-1] {
				t.Fatalf("vector not non-increasing at %d: %v", i, v)
			}
		}
		if total := n.TotalLoad(a); total < sum-1e-9 || total > sum+1e-9 {
			t.Fatalf("vector sum %v != total load %v", sum, total)
		}
	}
}

// randomNet builds a random geometric network for property tests.
func randomNet(t *testing.T, rng *rand.Rand, nAPs, nUsers, nSessions int) *Network {
	t.Helper()
	area := geom.Square(500)
	apPos := geom.UniformPoints(rng, nAPs, area)
	userPos := geom.UniformPoints(rng, nUsers, area)
	sessions := make([]Session, nSessions)
	for s := range sessions {
		sessions[s] = Session{Rate: 1}
	}
	userSession := make([]int, nUsers)
	for u := range userSession {
		userSession[u] = rng.Intn(nSessions)
	}
	n, err := NewGeometric(area, apPos, userPos, userSession, sessions, radio.Table1(), DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestLoadsHistoryFree pins the exact-load contract: however a state
// was reached — joins, leaves, moves, home swaps, user moves, AP
// failures — every tracker load equals, bit for bit, both the Network
// function over the materialized association and a tracker freshly
// built from it. The session rates are chosen so that float sums of
// the terms would depend on their order.
func TestLoadsHistoryFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	area := geom.Square(400)
	sessions := []Session{{Rate: 0.3}, {Rate: 0.7}, {Rate: 1.1}}
	for trial := 0; trial < 10; trial++ {
		userSession := make([]int, 30)
		for u := range userSession {
			userSession[u] = rng.Intn(len(sessions))
		}
		n, err := NewGeometric(area, geom.UniformPoints(rng, 6, area), geom.UniformPoints(rng, 30, area),
			userSession, sessions, radio.Table1(), DefaultBudget)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTracker(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		mt, err := NewMultiTracker(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 300; step++ {
			u := rng.Intn(n.NumUsers())
			nb := n.NeighborAPs(u)
			var ap int
			if len(nb) > 0 {
				ap = nb[rng.Intn(len(nb))]
			}
			var err error
			switch op := rng.Intn(8); {
			case op < 3 && len(nb) > 0:
				if tr.APOf(u) == Unassociated || op == 0 {
					err = tr.Move(u, ap)
				} else {
					err = tr.Disassociate(u)
				}
			case op < 5 && len(nb) > 0:
				if mt.HasHome(u, ap) {
					err = mt.RemoveHome(u, ap)
				} else {
					err = mt.AddHome(u, ap)
				}
			case op == 5 && len(nb) > 0:
				_, err = mt.ReplaceHomes(u, nb[:1+rng.Intn(len(nb))], nil)
			case op == 6:
				// A user changes position only while the single-AP
				// tracker has it detached; its homes are re-derived at
				// the new rates, as the engine does.
				if tr.APOf(u) != Unassociated {
					err = tr.Disassociate(u)
				}
				if err == nil {
					err = n.MoveUser(u, geom.UniformPoints(rng, 1, area)[0])
				}
				if err == nil {
					var kept []int
					for _, a := range mt.Homes(u) {
						if n.Reachable(a, u) {
							kept = append(kept, a)
						}
					}
					_, err = mt.ReplaceHomes(u, kept, nil)
				}
			case op == 7:
				err = toggleAP(n, tr, mt, rng.Intn(n.NumAPs()))
			}
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			requireExactLoads(t, n, tr, mt)
		}
	}
}

// toggleAP brings AP a back up, or takes it down after evicting its
// users from both trackers (the single-AP tracker first, while the
// links still exist; the multi-homing one releases recorded cells).
func toggleAP(n *Network, tr *Tracker, mt *MultiTracker, a int) error {
	if n.APDown(a) {
		return n.EnableAP(a)
	}
	for u := 0; u < n.NumUsers(); u++ {
		if tr.APOf(u) == a {
			if err := tr.Disassociate(u); err != nil {
				return err
			}
		}
	}
	if err := n.DisableAP(a); err != nil {
		return err
	}
	for u := 0; u < n.NumUsers(); u++ {
		if mt.HasHome(u, a) {
			if err := mt.RemoveHome(u, a); err != nil {
				return err
			}
		}
	}
	return nil
}

// requireExactLoads fails unless both trackers' APLoad, TotalLoad and
// MaxLoad are == to the Network functions and to fresh trackers.
func requireExactLoads(t *testing.T, n *Network, tr *Tracker, mt *MultiTracker) {
	t.Helper()
	a, ma := tr.Assoc(), mt.MultiAssoc()
	ftr, err := NewTracker(n, a)
	if err != nil {
		t.Fatal(err)
	}
	fmtr, err := NewMultiTracker(n, ma)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, recompute, fresh float64) {
		t.Helper()
		if got != recompute || got != fresh {
			t.Fatalf("%s: tracker %v, recompute %v, fresh tracker %v", what, got, recompute, fresh)
		}
	}
	for ap := 0; ap < n.NumAPs(); ap++ {
		same("AP load", tr.APLoad(ap), n.APLoad(a, ap), ftr.APLoad(ap))
		same("multi AP load", mt.APLoad(ap), n.APLoadMulti(ma, ap), fmtr.APLoad(ap))
	}
	same("total", tr.TotalLoad(), n.TotalLoad(a), ftr.TotalLoad())
	same("max", tr.MaxLoad(), n.MaxLoad(a), ftr.MaxLoad())
	same("multi total", mt.TotalLoad(), totalLoadMulti(n, ma), fmtr.TotalLoad())
	same("multi max", mt.MaxLoad(), n.MaxLoadMulti(ma), fmtr.MaxLoad())
}

// TestTrackerRefusesInexactLoads pins the construction check: a
// network where one AP could carry maxQuanta or more is refused,
// whether one session alone or the sum over sessions gets there.
func TestTrackerRefusesInexactLoads(t *testing.T) {
	for _, rates := range [][]radio.Mbps{{200}, {100, 100}, {50, 50}} {
		sessions := make([]Session, len(rates))
		for s, r := range rates {
			sessions[s] = Session{Rate: r}
		}
		n, err := NewFromRates([][]radio.Mbps{{1, 1}}, []int{0, len(rates) - 1}, sessions, DefaultBudget)
		if err != nil {
			t.Fatal(err)
		}
		_, terr := NewTracker(n, nil)
		_, merr := NewMultiTracker(n, nil)
		if fits := float64(rates[0])*float64(len(rates)) < maxQuanta.Load(); fits != (terr == nil) || fits != (merr == nil) {
			t.Errorf("session rates %v: tracker err %v, multi-tracker err %v", rates, terr, merr)
		}
	}
}

// TestQuantaExactForPaperRates pins why the quantum is 1/(27·2⁴⁰):
// under the paper's ratio load model every Table 1 rate loads a
// session of a few-bit bitrate by a whole number of quanta, so equal
// fractions of a load unit compare equal however they were summed.
func TestQuantaExactForPaperRates(t *testing.T) {
	var sessions []Session
	for _, r := range []radio.Mbps{0.25, 0.5, 1, 1.5, 2, 3, 4, 6, 8} {
		sessions = append(sessions, Session{Rate: r})
	}
	n := &Network{Sessions: sessions, Load: RatioLoad{}}
	for s, sess := range sessions {
		for _, r := range radio.Table1().Rates() {
			if q := n.quanta(s, r); float64(q)*float64(r) != float64(sess.Rate)*quantaPerLoad {
				t.Errorf("session rate %v at %v Mbps: %d quanta, not exact", sess.Rate, r, q)
			}
		}
	}
	// Session 4 streams 2 Mbps: 1/3 - 1/6 is exactly 1/6, which
	// rounding each term to a power-of-two quantum (2⁻⁴⁴) would miss by
	// one quantum.
	if d, want := n.quanta(4, 6)-n.quanta(4, 12), n.quanta(4, 12); d != want {
		t.Errorf("1/3 - 1/6 = %d quanta, 1/6 = %d", d, want)
	}
}

// totalLoadMulti returns the sum of all AP loads under m, computed
// from scratch — the oracle the multi-tracker's running total is
// checked against.
func totalLoadMulti(n *Network, m *MultiAssoc) float64 {
	total, _ := n.loadTotals(m.HasHome)
	return total.Load()
}
