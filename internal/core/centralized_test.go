package core

import (
	"math"
	"testing"

	"wlanmcast/internal/radio"
	"wlanmcast/internal/setcover"
	"wlanmcast/internal/wlan"
)

func TestCentralizedMLAFigure1(t *testing.T) {
	// Paper §6.1: CostSC puts every user on a1, total load 7/12 —
	// also the optimum.
	n := figure1(t, 1, 1)
	res := mustRun(t, &CentralizedMLA{}, n)
	if math.Abs(res.TotalLoad-7.0/12.0) > 1e-12 {
		t.Errorf("total load = %v, want 7/12", res.TotalLoad)
	}
	for u := 0; u < 5; u++ {
		if res.Assoc.APOf(u) != 0 {
			t.Errorf("user %d on AP %d, want a1", u, res.Assoc.APOf(u))
		}
	}
}

func TestCentralizedMNUFigure1(t *testing.T) {
	// Paper §4.1 walk-through: the raw greedy + H1/H2 repair serves 3
	// users (u2, u4, u5 on a1).
	n := figure1(t, 3, 3)
	in, infos := BuildInstance(n, true)
	mcg, err := setcover.GreedyMCG(in)
	if err != nil {
		t.Fatal(err)
	}
	raw := ApplyPicks(n, in, infos, mcg.Picked)
	if raw.SatisfiedCount() != 3 {
		t.Fatalf("raw greedy satisfied = %d, want 3 (paper walk-through)", raw.SatisfiedCount())
	}
	for _, u := range []int{1, 3, 4} {
		if raw.APOf(u) != 0 {
			t.Errorf("user %d on AP %d, want a1", u, raw.APOf(u))
		}
	}
	// The fill pass then recovers u3 onto a2, reaching the optimum 4.
	res := mustRun(t, &CentralizedMNU{}, n)
	if res.Satisfied != 4 {
		t.Fatalf("satisfied = %d, want 4 (greedy + fill)", res.Satisfied)
	}
	if res.Assoc.APOf(2) != 1 {
		t.Errorf("u3 on AP %d, want a2", res.Assoc.APOf(2))
	}
	if err := n.Validate(res.Assoc, true); err != nil {
		t.Errorf("MNU result violates budgets: %v", err)
	}
}

func TestCentralizedBLAFigure1(t *testing.T) {
	// The paper's per-iteration walk-through (§5.1) lands everyone on
	// a1 at max load 7/12; our cumulative-budget refinement (see
	// setcover.GreedySCG) finds the true optimum 1/2 here. Either is
	// within the Theorem 4 guarantee; assert we do no worse than the
	// optimum and no worse than the paper's outcome.
	n := figure1(t, 1, 1)
	res := mustRun(t, &CentralizedBLA{}, n)
	if !n.FullyAssociated(res.Assoc) {
		t.Fatal("BLA left coverable users unserved")
	}
	if math.Abs(res.MaxLoad-0.5) > 1e-12 {
		t.Errorf("max load = %v, want the optimum 1/2", res.MaxLoad)
	}
}

func TestSSAFigure1(t *testing.T) {
	// Paper §4.1: under SSA with budgets only 2 users are served
	// (u1 on a1 and u3 on a2 block the rest).
	n := figure1(t, 3, 3)
	res := mustRun(t, &SSA{EnforceBudget: true}, n)
	if res.Satisfied != 2 {
		t.Fatalf("satisfied = %d, want 2", res.Satisfied)
	}
	if res.Assoc.APOf(0) != 0 || res.Assoc.APOf(2) != 1 {
		t.Errorf("assoc = u1:%d u3:%d, want u1:a1 u3:a2",
			res.Assoc.APOf(0), res.Assoc.APOf(2))
	}
}

func TestSSAWithoutBudgetServesEveryone(t *testing.T) {
	n := figure1(t, 1, 1)
	res := mustRun(t, &SSA{}, n)
	if !n.FullyAssociated(res.Assoc) {
		t.Error("SSA without budgets should serve every coverable user")
	}
	// Strongest signal by rate: u3 (4 vs 5) and u4 (4 vs 5) go to a2,
	// u5 (4 vs 3) stays on a1.
	want := []int{0, 0, 1, 1, 0}
	for u, ap := range want {
		if res.Assoc.APOf(u) != ap {
			t.Errorf("user %d on AP %d, want %d", u, res.Assoc.APOf(u), ap)
		}
	}
}

func TestStrongestAPGeometric(t *testing.T) {
	// In a geometric network distance decides, not rate.
	rng := newTestRand()
	n := randomNetwork(t, rng, 8, 30, 2, wlan.DefaultBudget)
	for u := 0; u < n.NumUsers(); u++ {
		best := StrongestAP(n, u)
		if best == wlan.Unassociated {
			continue
		}
		for _, a := range n.NeighborAPs(u) {
			if n.Distance(a, u) < n.Distance(best, u)-1e-12 {
				t.Fatalf("user %d: AP %d at %.1fm closer than chosen %d at %.1fm",
					u, a, n.Distance(a, u), best, n.Distance(best, u))
			}
		}
	}
}

func TestAlgorithmsDeterministic(t *testing.T) {
	// Every algorithm is a pure function of the network: two runs
	// yield identical associations.
	rng := newTestRand()
	n := randomNetwork(t, rng, 10, 40, 3, wlan.DefaultBudget)
	algs := []Algorithm{
		&SSA{}, &SSA{EnforceBudget: true},
		&CentralizedMLA{}, &CentralizedMNU{}, &CentralizedBLA{},
		&Distributed{Objective: ObjMLA},
		&Distributed{Objective: ObjBLA},
		&Distributed{Objective: ObjMNU, EnforceBudget: true},
	}
	for _, alg := range algs {
		a1 := mustRun(t, alg, n)
		a2 := mustRun(t, alg, n)
		if !a1.Assoc.Equal(a2.Assoc) {
			t.Errorf("%s is nondeterministic", alg.Name())
		}
	}
}

func TestCentralizedBLAPolish(t *testing.T) {
	// The polish pass must never worsen the max load, and the bare
	// (NoPolish) variant is the Fig 6 algorithm.
	rng := newTestRand()
	for trial := 0; trial < 5; trial++ {
		n := randomNetwork(t, rng, 12, 50, 3, wlan.DefaultBudget)
		bare := mustRun(t, &CentralizedBLA{NoPolish: true}, n)
		polished := mustRun(t, &CentralizedBLA{}, n)
		if polished.MaxLoad > bare.MaxLoad+1e-9 {
			t.Fatalf("trial %d: polish worsened max load %v -> %v", trial, bare.MaxLoad, polished.MaxLoad)
		}
		if !n.FullyAssociated(polished.Assoc) {
			t.Fatal("polish dropped users")
		}
	}
}

func TestCentralizedMNUFillNeverWorsens(t *testing.T) {
	// Property: the fill pass keeps budget feasibility and can only
	// add satisfied users over the raw greedy.
	rng := newTestRand()
	for trial := 0; trial < 5; trial++ {
		n := randomNetwork(t, rng, 10, 50, 4, 0.05)
		in, infos := BuildInstance(n, true)
		mcg, err := setcover.GreedyMCG(in)
		if err != nil {
			t.Fatal(err)
		}
		raw := ApplyPicks(n, in, infos, mcg.Picked)
		res := mustRun(t, &CentralizedMNU{}, n)
		if res.Satisfied < raw.SatisfiedCount() {
			t.Fatalf("trial %d: fill lost users (%d -> %d)", trial, raw.SatisfiedCount(), res.Satisfied)
		}
		if err := n.Validate(res.Assoc, true); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestCentralizedAlgorithmsOnEmptyCoverage(t *testing.T) {
	// The only user is out of range of the only AP: every algorithm
	// must return an empty association without erroring.
	n, err := wlan.NewFromRates(
		[][]radio.Mbps{{0}}, []int{0}, []wlan.Session{{Rate: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{
		&CentralizedMLA{}, &CentralizedMNU{}, &CentralizedBLA{},
		&SSA{},
	} {
		res := mustRun(t, alg, n)
		if res.Satisfied != 0 {
			t.Errorf("%s satisfied %d users in an uncoverable network", alg.Name(), res.Satisfied)
		}
	}
}
