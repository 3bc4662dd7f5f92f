package wlan

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
)

// survivors builds the ground-truth surviving subnetwork from scratch:
// the same rate matrix with every down AP's row zeroed. A network with
// down APs must be indistinguishable from it through every accessor.
func survivors(t *testing.T, n *Network) *Network {
	t.Helper()
	rates := make([][]radio.Mbps, n.NumAPs())
	for a := range rates {
		row := make([]radio.Mbps, n.NumUsers())
		if !n.APDown(a) {
			for i, u := range n.adjUsers[a] {
				row[u] = n.adjRates[a][i]
			}
		}
		rates[a] = row
	}
	userSession := make([]int, n.NumUsers())
	for u := range userSession {
		userSession[u] = n.Users[u].Session
	}
	sessions := make([]Session, n.NumSessions())
	copy(sessions, n.Sessions)
	fresh, err := NewFromRates(rates, userSession, sessions, DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// assertSurvivorMatch compares every derived index and accessor of n
// against the from-scratch surviving subnetwork.
func assertSurvivorMatch(t *testing.T, n *Network) {
	t.Helper()
	fresh := survivors(t, n)
	for a := 0; a < n.NumAPs(); a++ {
		got := append([]int{}, n.Coverage(a)...)
		want := append([]int{}, fresh.Coverage(a)...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AP %d coverage = %v, want %v", a, got, want)
		}
		for u := 0; u < n.NumUsers(); u++ {
			if got, want := n.LinkRate(a, u), fresh.LinkRate(a, u); got != want {
				t.Fatalf("LinkRate(%d, %d) = %v, want %v", a, u, got, want)
			}
			if got, want := n.Reachable(a, u), fresh.Reachable(a, u); got != want {
				t.Fatalf("Reachable(%d, %d) = %v, want %v", a, u, got, want)
			}
			gr, gok := n.TxRate(a, u)
			wr, wok := fresh.TxRate(a, u)
			if gr != wr || gok != wok {
				t.Fatalf("TxRate(%d, %d) = (%v, %v), want (%v, %v)", a, u, gr, gok, wr, wok)
			}
		}
	}
	for u := 0; u < n.NumUsers(); u++ {
		got := append([]int{}, n.NeighborAPs(u)...)
		want := append([]int{}, fresh.NeighborAPs(u)...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("user %d neighbors = %v, want %v", u, got, want)
		}
	}
	if got, want := n.RateSet(), fresh.RateSet(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rate set = %v, want %v", got, want)
	}
	if got, want := n.BasicRate(), fresh.BasicRate(); got != want {
		t.Fatalf("basic rate = %v, want %v", got, want)
	}
}

func TestDisableEnableAPMatchesRebuild(t *testing.T) {
	n := dynNet(t, 21, 10, 25)
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 80; i++ {
		a := rng.Intn(n.NumAPs())
		if n.APDown(a) {
			if err := n.EnableAP(a); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := n.DisableAP(a); err != nil {
				t.Fatal(err)
			}
		}
		assertSurvivorMatch(t, n)
	}
	// Recover everything: the network must match a plain rebuild.
	for _, a := range n.DownAPs() {
		if err := n.EnableAP(a); err != nil {
			t.Fatal(err)
		}
	}
	if n.NumAPsDown() != 0 {
		t.Fatalf("NumAPsDown = %d after full recovery", n.NumAPsDown())
	}
	assertIndicesMatch(t, n, rebuilt(t, n), nil)
}

func TestDisableEnableAPErrors(t *testing.T) {
	n := dynNet(t, 22, 4, 8)
	for _, bad := range []int{-1, 4} {
		if err := n.DisableAP(bad); err == nil {
			t.Errorf("DisableAP(%d) accepted out-of-range AP", bad)
		}
		if err := n.EnableAP(bad); err == nil {
			t.Errorf("EnableAP(%d) accepted out-of-range AP", bad)
		}
	}
	if err := n.EnableAP(1); err == nil {
		t.Error("EnableAP on an up AP accepted")
	}
	if err := n.DisableAP(1); err != nil {
		t.Fatal(err)
	}
	if err := n.DisableAP(1); err == nil {
		t.Error("double DisableAP accepted")
	}
	if err := n.EnableAP(1); err != nil {
		t.Fatal(err)
	}
}

func TestAPDownAccessors(t *testing.T) {
	n := dynNet(t, 23, 6, 12)
	if n.NumAPsDown() != 0 || n.DownAPs() != nil {
		t.Fatal("fresh network reports down APs")
	}
	if err := n.DisableAP(2); err != nil {
		t.Fatal(err)
	}
	if err := n.DisableAP(5); err != nil {
		t.Fatal(err)
	}
	if !n.APDown(2) || !n.APDown(5) || n.APDown(0) {
		t.Fatal("APDown wrong")
	}
	if got := n.DownAPs(); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Fatalf("DownAPs = %v, want [2 5]", got)
	}
	if n.NumAPsDown() != 2 {
		t.Fatalf("NumAPsDown = %d, want 2", n.NumAPsDown())
	}
	if len(n.Coverage(2)) != 0 {
		t.Fatal("down AP has coverage")
	}
	for u := 0; u < n.NumUsers(); u++ {
		if n.Reachable(2, u) {
			t.Fatalf("user %d reachable from down AP", u)
		}
		if _, ok := n.TxRate(2, u); ok {
			t.Fatalf("TxRate resolves for down AP toward user %d", u)
		}
		if n.LinkRate(2, u) != 0 {
			t.Fatalf("LinkRate nonzero for down AP toward user %d", u)
		}
	}
}

// TestMoveUserWhileAPDown pins the restore contract: churn during the
// outage keeps the physical row current, and EnableAP surfaces the
// post-churn links, not the pre-failure ones.
func TestMoveUserWhileAPDown(t *testing.T) {
	n := dynNet(t, 24, 8, 16)
	if err := n.DisableAP(3); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 30; i++ {
		u := rng.Intn(n.NumUsers())
		pos := geom.Point{X: rng.Float64() * n.Area.Width, Y: rng.Float64() * n.Area.Height}
		if i%4 == 0 {
			pos = geom.Point{X: 1e7, Y: 1e7} // drive rate-set churn too
		}
		if err := n.MoveUser(u, pos); err != nil {
			t.Fatal(err)
		}
		assertSurvivorMatch(t, n)
	}
	// Park a user on the down AP itself: still not reachable from it.
	if err := n.MoveUser(0, n.APs[3].Pos); err != nil {
		t.Fatal(err)
	}
	if n.Reachable(3, 0) {
		t.Fatal("user reachable from down AP")
	}
	if err := n.EnableAP(3); err != nil {
		t.Fatal(err)
	}
	if !n.Reachable(3, 0) {
		t.Fatal("user moved onto AP during outage not reachable after recovery")
	}
	assertIndicesMatch(t, n, rebuilt(t, n), nil)
}

// TestTrackerExcludesDownAP pins the caller contract: disassociate
// before DisableAP, and a down AP rejects new associations while its
// load stays zero.
func TestTrackerExcludesDownAP(t *testing.T) {
	n := dynNet(t, 25, 6, 15)
	tr, err := NewTracker(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	var onAP2 []int
	for u := 0; u < n.NumUsers(); u++ {
		if nb := n.NeighborAPs(u); len(nb) > 0 {
			ap := nb[0]
			if err := tr.AddHome(u, ap); err != nil {
				t.Fatal(err)
			}
			if ap == 2 {
				onAP2 = append(onAP2, u)
			}
		}
	}
	if len(onAP2) == 0 {
		t.Skip("seed gave AP 2 no users")
	}
	before := tr.Satisfied()
	for _, u := range onAP2 {
		if err := tr.Disassociate(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.DisableAP(2); err != nil {
		t.Fatal(err)
	}
	if got := tr.Satisfied(); got != before-len(onAP2) {
		t.Fatalf("Satisfied = %d, want %d", got, before-len(onAP2))
	}
	if l := tr.APLoad(2); math.Abs(l) > 1e-9 {
		t.Fatalf("down AP tracked load = %v, want 0", l)
	}
	if err := tr.AddHome(onAP2[0], 2); err == nil {
		t.Fatal("Associate to a down AP accepted")
	}
	// Validate must reject an association that claims the down AP.
	a := NewAssoc(n.NumUsers())
	a.Associate(onAP2[0], 2)
	if err := n.Validate(a, false); err == nil {
		t.Fatal("Validate accepted an association to a down AP")
	}
	if err := n.EnableAP(2); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddHome(onAP2[0], 2); err != nil {
		t.Fatalf("re-associate after recovery: %v", err)
	}
}
