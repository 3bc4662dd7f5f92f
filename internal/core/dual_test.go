package core

import (
	"math/rand"
	"testing"

	"wlanmcast/internal/wlan"
)

func TestDualAssociateSplitsUsers(t *testing.T) {
	// On random networks, MLA steers multicast users toward shared
	// transmissions while unicast stays on the nearest AP, so some
	// users must end up split.
	rng := newTestRand()
	n := randomNetwork(t, rng, 12, 60, 3, wlan.DefaultBudget)
	res, err := DualAssociate(n, &CentralizedMLA{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SplitUsers == 0 {
		t.Error("no split users — dual association is doing nothing")
	}
	if err := n.Validate(res.Multicast, false); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(res.Unicast, false); err != nil {
		t.Fatal(err)
	}
}

func TestDualBeatsSingleOnTotalLoad(t *testing.T) {
	// Property: the dual unicast side serves every user at its
	// fastest link, so the total combined load never exceeds the
	// single-association baseline.
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 8; trial++ {
		n := randomNetwork(t, rng, 10, 50, 3, wlan.DefaultBudget)
		demand := make([]float64, n.NumUsers())
		for u := range demand {
			demand[u] = rng.Float64() * 2 // up to 2 Mbps each
		}
		dual, err := DualAssociate(n, &CentralizedMLA{}, demand)
		if err != nil {
			t.Fatal(err)
		}
		single, err := SingleAssociate(n, &CentralizedMLA{}, demand)
		if err != nil {
			t.Fatal(err)
		}
		if dual.TotalCombined() > single.TotalCombined()+1e-9 {
			t.Fatalf("trial %d: dual total %v above single %v",
				trial, dual.TotalCombined(), single.TotalCombined())
		}
	}
}

func TestDualUnicastUsesStrongestAP(t *testing.T) {
	n := figure1(t, 1, 1)
	res, err := DualAssociate(n, &CentralizedMLA{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n.NumUsers(); u++ {
		if res.Unicast.APOf(u) != StrongestAP(n, u) {
			t.Errorf("user %d unicast AP %d, want strongest %d", u, res.Unicast.APOf(u), StrongestAP(n, u))
		}
	}
	// MLA parks all multicast on a1, but u3 and u4's strongest AP is
	// a2 — they are split.
	if res.SplitUsers != 2 {
		t.Errorf("split users = %d, want 2 (u3, u4)", res.SplitUsers)
	}
}

func TestDualCombinedLoadAccounting(t *testing.T) {
	n := figure1(t, 1, 1)
	demand := []float64{1, 0, 0, 0, 0} // only u1 has unicast demand
	res, err := DualAssociate(n, &CentralizedMLA{}, demand)
	if err != nil {
		t.Fatal(err)
	}
	// a1 carries the full multicast (7/12) plus u1's 1 Mbps at rate 3.
	want := 7.0/12.0 + 1.0/3.0
	if diff := res.CombinedLoad[0] - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("a1 combined load = %v, want %v", res.CombinedLoad[0], want)
	}
}

func TestDualValidation(t *testing.T) {
	n := figure1(t, 1, 1)
	if _, err := DualAssociate(n, &CentralizedMLA{}, []float64{1}); err == nil {
		t.Error("short demand vector should error")
	}
	if _, err := SingleAssociate(n, &CentralizedMLA{}, []float64{1}); err == nil {
		t.Error("short demand vector should error")
	}
}

func TestSingleAssociateUnicastFallback(t *testing.T) {
	// A user without multicast service still gets a unicast AP.
	n := figure1(t, 3, 3) // tight: not everyone gets multicast
	res, err := SingleAssociate(n, &CentralizedMNU{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n.NumUsers(); u++ {
		if res.Unicast.APOf(u) == wlan.Unassociated {
			t.Errorf("user %d has no unicast AP", u)
		}
	}
}
