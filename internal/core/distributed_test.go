package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wlanmcast/internal/wlan"
)

func TestDistributedMNUFigure1(t *testing.T) {
	// Paper §4.2 walk-through (sessions at 3 Mbps, order u1..u5):
	// u1→a1, u2 blocked, u3→a1, u4→a2, u5→a2 — 4 of 5 users served.
	n := figure1(t, 3, 3)
	d := &Distributed{Objective: ObjMNU, EnforceBudget: true}
	res, err := d.RunDetailed(n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("sequential distributed MNU must converge (Lemma 1)")
	}
	if got := res.Assoc.SatisfiedCount(); got != 4 {
		t.Fatalf("satisfied = %d, want 4", got)
	}
	want := map[int]int{0: 0, 2: 0, 3: 1, 4: 1} // u1,u3 on a1; u4,u5 on a2
	for u, ap := range want {
		if res.Assoc.APOf(u) != ap {
			t.Errorf("user %d on AP %d, want %d", u, res.Assoc.APOf(u), ap)
		}
	}
	if res.Assoc.APOf(1) != wlan.Unassociated {
		t.Errorf("u2 should be blocked, got AP %d", res.Assoc.APOf(1))
	}
	if err := n.Validate(res.Assoc, true); err != nil {
		t.Errorf("budget violated: %v", err)
	}
}

func TestDistributedMLAFigure1(t *testing.T) {
	// Paper §6.2 walk-through (sessions at 1 Mbps): every user joins
	// a1, total load 7/12 — the optimum.
	n := figure1(t, 1, 1)
	d := &Distributed{Objective: ObjMLA}
	res := mustRun(t, d, n)
	if math.Abs(res.TotalLoad-7.0/12.0) > 1e-12 {
		t.Errorf("total load = %v, want 7/12", res.TotalLoad)
	}
	for u := 0; u < 5; u++ {
		if res.Assoc.APOf(u) != 0 {
			t.Errorf("user %d on AP %d, want a1", u, res.Assoc.APOf(u))
		}
	}
}

func TestDistributedBLAFigure1(t *testing.T) {
	// Paper §5.2 walk-through: u1,u2,u3 on a1 (load 1/2), u4,u5 on a2
	// (load 1/3) — the optimum.
	n := figure1(t, 1, 1)
	d := &Distributed{Objective: ObjBLA}
	res := mustRun(t, d, n)
	if math.Abs(res.MaxLoad-0.5) > 1e-12 {
		t.Errorf("max load = %v, want 1/2", res.MaxLoad)
	}
	want := []int{0, 0, 0, 1, 1}
	for u, ap := range want {
		if res.Assoc.APOf(u) != ap {
			t.Errorf("user %d on AP %d, want %d", u, res.Assoc.APOf(u), ap)
		}
	}
}

func TestSimultaneousOscillationFigure4(t *testing.T) {
	// Paper §4.2, Figure 4: with simultaneous decisions u2 and u3 swap
	// APs forever — a period-2 livelock.
	n := figure4(t)
	d := &Distributed{Objective: ObjMNU, EnforceBudget: true}
	res, err := d.RunSimultaneous(n, figure4Start(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("Figure 4 must not converge under simultaneous decisions")
	}
	if !res.Oscillating || res.Period != 2 {
		t.Errorf("oscillating = %v period = %d, want period-2 oscillation", res.Oscillating, res.Period)
	}
}

func TestSequentialConvergesOnFigure4(t *testing.T) {
	// The same scenario converges when users decide one by one
	// (Lemma 1): u2 moves to a2, then u3 has no improving move.
	n := figure4(t)
	d := &Distributed{Objective: ObjMNU, EnforceBudget: true, Start: figure4Start()}
	res, err := d.RunDetailed(n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("sequential run must converge")
	}
	total := n.TotalLoad(res.Assoc)
	if math.Abs(total-9.0/20.0) > 1e-12 {
		t.Errorf("total load = %v, want 9/20 (the improved state)", total)
	}
}

func TestSimultaneousConvergesWhenNoConflict(t *testing.T) {
	// Figure 1 at 1 Mbps has a unique attractor for the MLA rule;
	// simultaneous decisions still converge there.
	n := figure1(t, 1, 1)
	d := &Distributed{Objective: ObjMLA}
	res, err := d.RunSimultaneous(n, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("expected convergence, got oscillating=%v after %d rounds", res.Oscillating, res.Rounds)
	}
}

func TestDistributedValidation(t *testing.T) {
	n := figure1(t, 1, 1)
	if _, err := (&Distributed{}).RunDetailed(n); err == nil {
		t.Error("zero objective should error")
	}
	if _, err := (&Distributed{Objective: ObjMLA, Order: []int{0, 1}}).RunDetailed(n); err == nil {
		t.Error("short order should error")
	}
	if _, err := (&Distributed{Objective: ObjMLA, Order: []int{0, 0, 1, 2, 3}}).RunDetailed(n); err == nil {
		t.Error("non-permutation order should error")
	}
	if _, err := (&Distributed{Objective: ObjMLA}).RunSimultaneous(n, wlan.NewAssoc(2), 5); err == nil {
		t.Error("size-mismatched start should error")
	}
}

// TestParseObjective pins the accepted names: exactly the three
// lower-case ones. The daemon's replay re-checks a journaled scenario
// record's error outcome, so a wider set would change what boots.
func TestParseObjective(t *testing.T) {
	for name, want := range map[string]Objective{"mnu": ObjMNU, "bla": ObjBLA, "mla": ObjMLA} {
		if got, err := ParseObjective(name); err != nil || got != want {
			t.Errorf("ParseObjective(%q) = (%v, %v), want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"nope", "", "MLA", "Bla", " mnu"} {
		_, err := ParseObjective(name)
		if want := fmt.Sprintf("unknown objective %q", name); err == nil || err.Error() != want {
			t.Errorf("ParseObjective(%q) error = %v, want %q", name, err, want)
		}
	}
}

func TestObjectiveString(t *testing.T) {
	if ObjMNU.String() != "MNU" || ObjBLA.String() != "BLA" || ObjMLA.String() != "MLA" {
		t.Error("objective names wrong")
	}
	if Objective(9).String() != "Objective(9)" {
		t.Error("unknown objective formatting wrong")
	}
	d := &Distributed{Objective: ObjBLA}
	if d.Name() != "BLA-distributed" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestDistributedOrderMatters(t *testing.T) {
	// Reversing the order changes the walk but must still converge and
	// produce a valid association.
	n := figure1(t, 3, 3)
	order := []int{4, 3, 2, 1, 0}
	d := &Distributed{Objective: ObjMNU, EnforceBudget: true, Order: order}
	res, err := d.RunDetailed(n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("must converge for any order")
	}
	if err := n.Validate(res.Assoc, true); err != nil {
		t.Errorf("budget violated: %v", err)
	}
}

func TestDistributedConvergesRandom(t *testing.T) {
	// Property (Lemmas 1-2): sequential runs converge on random
	// networks for all three objectives, within few rounds.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		n := randomNetwork(t, rng, 10, 40, 3, wlan.DefaultBudget)
		for _, obj := range []Objective{ObjMNU, ObjBLA, ObjMLA} {
			d := &Distributed{Objective: obj, EnforceBudget: obj == ObjMNU}
			res, err := d.RunDetailed(n)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("trial %d: %v did not converge in %d rounds", trial, obj, res.Rounds)
			}
			if err := n.Validate(res.Assoc, obj == ObjMNU); err != nil {
				t.Fatalf("trial %d: %v invalid: %v", trial, obj, err)
			}
			if obj != ObjMNU && !n.FullyAssociated(res.Assoc) {
				t.Fatalf("trial %d: %v left coverable users unserved", trial, obj)
			}
		}
	}
}

func TestDistributedImprovesOnSSA(t *testing.T) {
	// The paper's core claim, in expectation over scenarios: the
	// distributed MLA/BLA rules do not lose to SSA on their own
	// objective, averaged over seeds.
	rng := rand.New(rand.NewSource(12))
	var ssaTotal, mlaTotal, ssaMax, blaMax float64
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		n := randomNetwork(t, rng, 15, 60, 4, wlan.DefaultBudget)
		ssa := mustRun(t, &SSA{}, n)
		mla := mustRun(t, &Distributed{Objective: ObjMLA}, n)
		bla := mustRun(t, &Distributed{Objective: ObjBLA}, n)
		ssaTotal += ssa.TotalLoad
		mlaTotal += mla.TotalLoad
		ssaMax += ssa.MaxLoad
		blaMax += bla.MaxLoad
	}
	if mlaTotal > ssaTotal+1e-9 {
		t.Errorf("distributed MLA average total load %v worse than SSA %v", mlaTotal/trials, ssaTotal/trials)
	}
	if blaMax > ssaMax+1e-9 {
		t.Errorf("distributed BLA average max load %v worse than SSA %v", blaMax/trials, ssaMax/trials)
	}
}
