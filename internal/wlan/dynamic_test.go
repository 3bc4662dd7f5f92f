package wlan

import (
	"math/rand"
	"reflect"
	"testing"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
)

// dynNet builds a small geometric network for mutation tests.
func dynNet(t *testing.T, seed int64, aps, users int) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	area := geom.Rect{Width: 600, Height: 500}
	apPos := geom.UniformPoints(rng, aps, area)
	userPos := geom.UniformPoints(rng, users, area)
	sessions := []Session{{Rate: 1}, {Rate: 2}}
	userSession := make([]int, users)
	for u := range userSession {
		userSession[u] = rng.Intn(len(sessions))
	}
	n, err := NewGeometric(area, apPos, userPos, userSession, sessions, radio.Table1(), DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// rebuilt reconstructs the network from the mutated positions, giving
// the ground truth every derived index must match.
func rebuilt(t *testing.T, n *Network) *Network {
	t.Helper()
	apPos := make([]geom.Point, n.NumAPs())
	for a := range apPos {
		apPos[a] = n.APs[a].Pos
	}
	userPos := make([]geom.Point, n.NumUsers())
	userSession := make([]int, n.NumUsers())
	for u := range userPos {
		userPos[u] = n.Users[u].Pos
		userSession[u] = n.Users[u].Session
	}
	sessions := make([]Session, n.NumSessions())
	copy(sessions, n.Sessions)
	fresh, err := NewGeometric(n.Area, apPos, userPos, userSession, sessions, radio.Table1(), DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// assertIndicesMatch compares every derived index of n against a
// from-scratch rebuild, except where users were detached (a rebuild
// re-derives their rates from position; detached users must have
// none).
func assertIndicesMatch(t *testing.T, n, fresh *Network, detached map[int]bool) {
	t.Helper()
	for a := 0; a < n.NumAPs(); a++ {
		wantCov := make([]int, 0)
		for _, u := range fresh.Coverage(a) {
			if !detached[u] {
				wantCov = append(wantCov, u)
			}
		}
		if got := n.Coverage(a); !reflect.DeepEqual(append([]int{}, got...), wantCov) {
			t.Fatalf("AP %d coverage = %v, want %v", a, got, wantCov)
		}
		for u := 0; u < n.NumUsers(); u++ {
			want := fresh.LinkRate(a, u)
			if detached[u] {
				want = 0
			}
			if got := n.LinkRate(a, u); got != want {
				t.Fatalf("rate[%d][%d] = %v, want %v", a, u, got, want)
			}
		}
	}
	for u := 0; u < n.NumUsers(); u++ {
		want := fresh.NeighborAPs(u)
		if detached[u] {
			want = nil
		}
		got := n.NeighborAPs(u)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("user %d neighbors = %v, want %v", u, got, want)
		}
	}
}

func TestMoveUserMatchesRebuild(t *testing.T) {
	n := dynNet(t, 1, 12, 25)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		u := rng.Intn(n.NumUsers())
		pos := geom.Point{X: rng.Float64() * n.Area.Width, Y: rng.Float64() * n.Area.Height}
		if err := n.MoveUser(u, pos); err != nil {
			t.Fatal(err)
		}
		if n.Users[u].Pos != pos {
			t.Fatalf("position not updated for user %d", u)
		}
	}
	assertIndicesMatch(t, n, rebuilt(t, n), nil)
}

func TestMoveUserRateSetConsistent(t *testing.T) {
	n := dynNet(t, 2, 8, 15)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		u := rng.Intn(n.NumUsers())
		// Alternate between in-area and far-away positions so rates
		// appear and disappear from the global rate set.
		pos := geom.Point{X: rng.Float64() * n.Area.Width, Y: rng.Float64() * n.Area.Height}
		if i%3 == 0 {
			pos = geom.Point{X: 1e7, Y: 1e7}
		}
		if err := n.MoveUser(u, pos); err != nil {
			t.Fatal(err)
		}
		fresh := rebuilt(t, n)
		if got, want := n.RateSet(), fresh.RateSet(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d moves: rate set %v, want %v", i+1, got, want)
		}
		if got, want := n.BasicRate(), fresh.BasicRate(); got != want {
			t.Fatalf("after %d moves: basic rate %v, want %v", i+1, got, want)
		}
	}
}

func TestDetachUser(t *testing.T) {
	n := dynNet(t, 3, 10, 20)
	detached := map[int]bool{4: true, 11: true, 17: true}
	for u := range detached {
		if err := n.DetachUser(u); err != nil {
			t.Fatal(err)
		}
		if n.Coverable(u) {
			t.Fatalf("detached user %d still coverable", u)
		}
	}
	assertIndicesMatch(t, n, rebuilt(t, n), detached)

	// Re-attach by moving back into the area: coverage returns.
	if err := n.MoveUser(4, n.APs[0].Pos); err != nil {
		t.Fatal(err)
	}
	if !n.Coverable(4) {
		t.Fatal("user moved onto an AP is not coverable")
	}
}

func TestSetUserSession(t *testing.T) {
	n := dynNet(t, 4, 5, 10)
	if err := n.SetUserSession(3, 1); err != nil {
		t.Fatal(err)
	}
	if got := n.UserSession(3); got != 1 {
		t.Fatalf("session = %d, want 1", got)
	}
	for _, bad := range [][2]int{{3, -1}, {3, 2}, {-1, 0}, {10, 0}} {
		if err := n.SetUserSession(bad[0], bad[1]); err == nil {
			t.Errorf("SetUserSession(%d, %d) accepted invalid input", bad[0], bad[1])
		}
	}
}

func TestMoveUserErrors(t *testing.T) {
	n := dynNet(t, 5, 5, 10)
	if err := n.MoveUser(-1, geom.Point{}); err == nil {
		t.Error("negative user accepted")
	}
	if err := n.MoveUser(10, geom.Point{}); err == nil {
		t.Error("out-of-range user accepted")
	}
	if err := n.DetachUser(42); err == nil {
		t.Error("DetachUser out-of-range user accepted")
	}
	// Explicit-rate networks have no geometry to rederive rates from.
	nr, err := NewFromRates([][]radio.Mbps{{6, 6}}, []int{0, 0}, []Session{{Rate: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nr.MoveUser(0, geom.Point{}); err == nil {
		t.Error("MoveUser on non-geometric network accepted")
	}
	if err := nr.DetachUser(0); err != nil {
		t.Errorf("DetachUser on non-geometric network: %v", err)
	}
}

// TestDetachLastUserOfSession covers the session multiset emptying
// out: detaching the only member of a session removes that session's
// entire load contribution and leaves the rate set consistent.
func TestDetachLastUserOfSession(t *testing.T) {
	n, err := NewFromRates(
		[][]radio.Mbps{{54, 6}, {0, 12}},
		[]int{0, 1},
		[]Session{{Rate: 2}, {Rate: 3}},
		DefaultBudget,
	)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AddHome(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddHome(1, 1); err != nil {
		t.Fatal(err)
	}
	// User 1 is session 1's only member. Remove it: AP 1's load must
	// drop to exactly zero, not a residual float.
	if err := tr.Disassociate(1); err != nil {
		t.Fatal(err)
	}
	if err := n.DetachUser(1); err != nil {
		t.Fatal(err)
	}
	if l := tr.APLoad(1); l != 0 {
		t.Fatalf("AP 1 load after last session user left = %v, want 0", l)
	}
	if got, want := n.RateSet(), []radio.Mbps{54}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rate set = %v, want %v", got, want)
	}
	if got := tr.Satisfied(); got != 1 {
		t.Fatalf("Satisfied = %d, want 1", got)
	}
}

// TestMoveOutOfAllCoverage moves a user beyond every AP's range: it
// must become uncoverable with empty neighbor sets, and the global
// rate set must forget rates only it contributed.
func TestMoveOutOfAllCoverage(t *testing.T) {
	n := dynNet(t, 7, 6, 12)
	u := 5
	if !n.Coverable(u) {
		t.Skip("seed left user 5 uncovered")
	}
	if err := n.MoveUser(u, geom.Point{X: 1e9, Y: 1e9}); err != nil {
		t.Fatal(err)
	}
	if n.Coverable(u) {
		t.Fatal("user out of every AP's range still coverable")
	}
	if nb := n.NeighborAPs(u); len(nb) != 0 {
		t.Fatalf("neighbors = %v, want none", nb)
	}
	for a := 0; a < n.NumAPs(); a++ {
		if n.Reachable(a, u) {
			t.Fatalf("AP %d still reaches the user", a)
		}
	}
	assertIndicesMatch(t, n, rebuilt(t, n), nil)
}

// TestRepeatedDetach detaches the same user twice: the second call is
// a no-op, not an error, and indices stay exact.
func TestRepeatedDetach(t *testing.T) {
	n := dynNet(t, 8, 6, 12)
	detached := map[int]bool{2: true}
	if err := n.DetachUser(2); err != nil {
		t.Fatal(err)
	}
	if err := n.DetachUser(2); err != nil {
		t.Fatalf("repeated detach: %v", err)
	}
	if n.Coverable(2) {
		t.Fatal("detached user coverable")
	}
	assertIndicesMatch(t, n, rebuilt(t, n), detached)
}

// TestDynamicTrackerInterplay pins the documented contract: detach in
// the tracker first, mutate, re-decide — and the tracker loads stay
// exact.
func TestDynamicTrackerInterplay(t *testing.T) {
	n := dynNet(t, 6, 10, 20)
	tr, err := NewTracker(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n.NumUsers(); u++ {
		if nb := n.NeighborAPs(u); len(nb) > 0 {
			if err := tr.AddHome(u, nb[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 40; i++ {
		u := rng.Intn(n.NumUsers())
		if tr.APOf(u) != Unassociated {
			if err := tr.Disassociate(u); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.MoveUser(u, geom.Point{X: rng.Float64() * n.Area.Width, Y: rng.Float64() * n.Area.Height}); err != nil {
			t.Fatal(err)
		}
		if nb := n.NeighborAPs(u); len(nb) > 0 {
			if err := tr.AddHome(u, nb[rng.Intn(len(nb))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := tr.Assoc()
	for ap := 0; ap < n.NumAPs(); ap++ {
		want := n.APLoad(snap, ap)
		if got := tr.APLoad(ap); got != want {
			t.Fatalf("AP %d tracked load %v, recomputed %v", ap, got, want)
		}
	}
}
