package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/wlan"
)

// chooseBLARef is the BLA rule as it was before sort-once decisions:
// one freshly built and sorted vector per candidate AP. The
// differential test holds chooseBLA to it.
func (d *Distributed) chooseBLARef(n *wlan.Network, tr *wlan.Tracker, u int) (int, bool) {
	cur := tr.APOf(u)
	neighbors := n.NeighborAPs(u)
	leaveLoad, _ := tr.LoadIfLeave(u)

	// vectorIf builds the sorted neighborhood load vector if u were
	// associated with target (target == cur means "stay").
	vectorIf := func(target int) []float64 {
		v := make([]float64, 0, len(neighbors))
		for _, b := range neighbors {
			load := tr.APLoad(b)
			if b == cur && target != cur {
				load = leaveLoad
			}
			if b == target && target != cur {
				load, _, _ = tr.LoadIfJoin(u, b)
			}
			v = append(v, load)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(v)))
		return v
	}

	best := wlan.Unassociated
	var bestVec []float64
	for _, a := range neighbors {
		if a != cur {
			joinLoad, _, ok := tr.LoadIfJoin(u, a)
			if !ok {
				continue
			}
			if d.EnforceBudget && !n.WithinBudget(a, joinLoad) {
				continue
			}
		}
		v := vectorIf(a)
		switch {
		case best == wlan.Unassociated:
			best, bestVec = a, v
		default:
			switch wlan.CompareLoadVectors(v, bestVec) {
			case -1:
				best, bestVec = a, v
			case 0:
				if betterTie(n, u, a, best) {
					best, bestVec = a, v
				}
			}
		}
	}
	if best == wlan.Unassociated {
		return best, false
	}
	if cur == wlan.Unassociated {
		return best, true
	}
	if best == cur {
		return best, false
	}
	// Moving must strictly reduce the sorted vector (Lemma 2), beyond
	// the hysteresis threshold when one is configured.
	return best, wlan.CompareLoadVectorsEps(bestVec, vectorIf(cur), d.moveEps()) < 0
}

// blaVariants are the rule configurations the differential runs: plain
// batch BLA, budget-enforcing, and the engine's hysteresis damping.
var blaVariants = []Distributed{
	{Objective: ObjBLA},
	{Objective: ObjBLA, EnforceBudget: true},
	{Objective: ObjBLA, Hysteresis: 0.02},
	{Objective: ObjBLA, Hysteresis: 0.2, EnforceBudget: true},
}

// requireChooseBLAMatches compares chooseBLA with chooseBLARef for
// every user and variant against tr, and reports how many decisions
// were for a user whose current AP is not among its neighbours.
func requireChooseBLAMatches(t *testing.T, n *wlan.Network, tr *wlan.Tracker) (curAway int) {
	t.Helper()
	for i := range blaVariants {
		d := &blaVariants[i]
		for u := 0; u < n.NumUsers(); u++ {
			ap, improves := d.Choose(n, tr, u)
			wantAP, wantImproves := d.chooseBLARef(n, tr, u)
			if ap != wantAP || improves != wantImproves {
				t.Fatalf("%+v user %d (on AP %d): sort-once chose (%d, %v), reference (%d, %v)",
					*d, u, tr.APOf(u), ap, improves, wantAP, wantImproves)
			}
			if cur := tr.APOf(u); cur != wlan.Unassociated && !slices.Contains(n.NeighborAPs(u), cur) {
				curAway++
			}
		}
	}
	return curAway
}

// randomStart associates most users with a random neighbour AP.
func randomStart(rng *rand.Rand, n *wlan.Network) *wlan.Assoc {
	a := wlan.NewAssoc(n.NumUsers())
	for u := 0; u < n.NumUsers(); u++ {
		if nb := n.NeighborAPs(u); len(nb) > 0 && rng.Intn(5) != 0 {
			a.Associate(u, nb[rng.Intn(len(nb))])
		}
	}
	return a
}

func TestChooseBLASortOnceMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	curAway := 0
	for trial := 0; trial < 30; trial++ {
		budget := []float64{0.1, 0.5, 1}[trial%3]
		n := randomNetwork(t, rng, 6+rng.Intn(30), 20+rng.Intn(100), 1+rng.Intn(3), budget)
		tr, err := wlan.NewTracker(n, randomStart(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		curAway += requireChooseBLAMatches(t, n, tr)
		// Take a few APs down under their users, so some users' current
		// AP drops out of NeighborAPs.
		for k := 1 + rng.Intn(3); k > 0; k-- {
			if a := rng.Intn(len(n.APs)); !n.APDown(a) {
				if err := n.DisableAP(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		curAway += requireChooseBLAMatches(t, n, tr)
		// Let the rule move users, so loads reach its own states (with
		// their equal-load ties), and compare again.
		d := &Distributed{Objective: ObjBLA}
		for u := 0; u < n.NumUsers(); u++ {
			if _, err := d.decide(n, tr, u); err != nil {
				t.Fatal(err)
			}
		}
		curAway += requireChooseBLAMatches(t, n, tr)
	}
	if curAway == 0 {
		t.Fatal("no decision had the current AP outside NeighborAPs")
	}
	// Neighbourhoods above blaStack take the heap fallback.
	area := geom.Square(100)
	const aps, users = blaStack + 16, 30
	sessions := make([]int, users)
	n, err := wlan.NewGeometric(area, geom.UniformPoints(rng, aps, area), geom.UniformPoints(rng, users, area),
		sessions, []wlan.Session{{Rate: 1}}, radio.Table1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.NeighborAPs(0)) <= blaStack {
		t.Fatalf("user 0 has %d neighbours, want more than %d", len(n.NeighborAPs(0)), blaStack)
	}
	tr, err := wlan.NewTracker(n, randomStart(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	requireChooseBLAMatches(t, n, tr)
}

func TestChooseBLAAllocGate(t *testing.T) {
	// The BLA decision runs once per user per round and per engine
	// re-decision; at the paper's density it must not allocate.
	n, err := scenario.GenerateNetwork(scenario.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	start, err := (&SSA{}).Run(n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := wlan.NewTracker(n, start)
	if err != nil {
		t.Fatal(err)
	}
	d := &Distributed{Objective: ObjBLA, Hysteresis: 0.01}
	u := 0
	allocs := testing.AllocsPerRun(2000, func() {
		d.Choose(n, tr, u)
		u = (u + 1) % n.NumUsers()
	})
	if allocs != 0 {
		t.Fatalf("Distributed{ObjBLA}.Choose: %v allocs per call, want 0", allocs)
	}
}

// campusNetwork builds the benchmark module's full zoned campus: 16
// zones on a 4-column grid, each a 4 440 m square holding 300 APs and
// 6 250 users, with 2 000 m of dead space between zones and four
// sessions at 2, 4, 6 and 8 Mbps. The spec is copied here, not
// imported, so the draws must stay in the same order.
func campusNetwork(b *testing.B, seed int64) *wlan.Network {
	b.Helper()
	const (
		zones, cols              = 16, 4
		apsPerZone, usersPerZone = 300, 6250
		side, gap                = 4440.0, 2000.0
		sessions                 = 4
	)
	rng := rand.New(rand.NewSource(seed))
	pitch := side + gap
	point := func(z int) geom.Point {
		return geom.Point{
			X: float64(z%cols)*pitch + 100 + rng.Float64()*side,
			Y: float64(z/cols)*pitch + 100 + rng.Float64()*side,
		}
	}
	rows := (zones + cols - 1) / cols
	s := &scenario.Spec{
		Kind:      scenario.KindGeometric,
		Area:      geom.Rect{Width: float64(cols) * pitch, Height: float64(rows) * pitch},
		Budget:    wlan.DefaultBudget,
		RateSteps: radio.Table1().Steps(),
	}
	for i := 0; i < sessions; i++ {
		s.Sessions = append(s.Sessions, wlan.Session{ID: i, Rate: radio.Mbps(2 * (i + 1))})
	}
	for z := 0; z < zones; z++ {
		for i := 0; i < apsPerZone; i++ {
			s.APPositions = append(s.APPositions, point(z))
		}
	}
	for u := 0; u < zones*usersPerZone; u++ {
		s.UserPositions = append(s.UserPositions, point(u%zones))
		s.UserSessions = append(s.UserSessions, rng.Intn(sessions))
	}
	n, err := s.Network()
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkCentralizedBLACampus times one centralized BLA solve (SCG
// guesses plus the polish pass) on the campus: 4 800 APs and 100 000
// users. Run it with -benchtime 1x; one solve takes seconds.
func BenchmarkCentralizedBLACampus(b *testing.B) {
	n := campusNetwork(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&CentralizedBLA{}).Run(n); err != nil {
			b.Fatal(err)
		}
	}
}

// paperNetwork is a uniform random scenario with aps access points at
// the paper's density (200 APs on 1200 m × 1000 m, area scaled with
// the same aspect ratio) and users users.
func paperNetwork(tb testing.TB, seed int64, aps, users int) *wlan.Network {
	tb.Helper()
	def := scenario.PaperDefaults()
	k := math.Sqrt(float64(aps) / float64(def.NumAPs))
	n, err := scenario.GenerateNetwork(scenario.Params{
		Area:   geom.Rect{Width: def.Area.Width * k, Height: def.Area.Height * k},
		NumAPs: aps, NumUsers: users, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// BenchmarkSolve4kRound times one round of the solve-4k batch job: all
// seven algorithms on 2 000 APs × 4 000 users at the paper's density.
// Profile it with
//
//	go test ./internal/core -run '^$' -bench Solve4kRound -cpuprofile cpu.out
func BenchmarkSolve4kRound(b *testing.B) {
	n := paperNetwork(b, 1, 2000, 4000)
	algs := []Algorithm{
		&SSA{},
		&CentralizedMNU{},
		&CentralizedBLA{},
		&CentralizedMLA{},
		&Distributed{Objective: ObjMNU, EnforceBudget: true},
		&Distributed{Objective: ObjBLA},
		&Distributed{Objective: ObjMLA},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range algs {
			if _, err := a.Run(n); err != nil {
				b.Fatalf("%s: %v", a.Name(), err)
			}
		}
	}
}
