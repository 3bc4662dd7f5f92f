package setcover

import (
	"math"
	"math/rand"
	"testing"
)

// figure7 is the paper's Figure 7 instance: the MLA reduction of the
// Figure 1 WLAN with both session rates 1 Mbps. Elements 0..4 are users
// u1..u5; groups 0,1 are APs a1,a2.
//
//	S1={u3} c=1/4   S2={u1,u3} c=1/3   S3={u2} c=1/6   S4={u2,u4,u5} c=1/4   (a1)
//	S5={u3} c=1/5   S6={u4} c=1/5      S7={u4,u5} c=1/3                      (a2)
func figure7() *Instance {
	return &Instance{
		NumElements: 5,
		NumGroups:   2,
		Budgets:     []float64{1, 1},
		Sets: []Set{
			{Group: 0, Cost: 1.0 / 4, Elems: []int{2}},
			{Group: 0, Cost: 1.0 / 3, Elems: []int{0, 2}},
			{Group: 0, Cost: 1.0 / 6, Elems: []int{1}},
			{Group: 0, Cost: 1.0 / 4, Elems: []int{1, 3, 4}},
			{Group: 1, Cost: 1.0 / 5, Elems: []int{2}},
			{Group: 1, Cost: 1.0 / 5, Elems: []int{3}},
			{Group: 1, Cost: 1.0 / 3, Elems: []int{3, 4}},
		},
	}
}

// figure2 is the paper's Figure 2 instance: the MNU reduction of the
// Figure 1 WLAN with both session rates 3 Mbps (costs are 3x Figure 7).
func figure2() *Instance {
	in := figure7()
	for i := range in.Sets {
		in.Sets[i].Cost *= 3
	}
	return in
}

func TestGreedyCoverFigure7(t *testing.T) {
	// Paper §6.1 walk-through: CostSC picks S4 (effectiveness 12) then
	// S2 (effectiveness 6), total cost 7/12 — also the optimum.
	res, err := GreedyCover(figure7())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Picked) != 2 || res.Picked[0] != 3 || res.Picked[1] != 1 {
		t.Fatalf("Picked = %v, want [3 1] (S4 then S2)", res.Picked)
	}
	if math.Abs(res.TotalCost-7.0/12.0) > 1e-12 {
		t.Errorf("TotalCost = %v, want 7/12", res.TotalCost)
	}
	if res.NumCovered != 5 {
		t.Errorf("NumCovered = %d, want 5", res.NumCovered)
	}
}

func TestExactMinCoverFigure7(t *testing.T) {
	res, err := ExactMinCover(figure7())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TotalCost-7.0/12.0) > 1e-12 {
		t.Errorf("optimal cost = %v, want 7/12", res.TotalCost)
	}
	if res.NumCovered != 5 {
		t.Errorf("NumCovered = %d, want 5", res.NumCovered)
	}
}

func TestGreedyMCGFigure2(t *testing.T) {
	// Paper §4.1 walk-through: greedy picks S4 then S2; H splits into
	// H1={S4}, H2={S2}; H1 covers 3 elements and wins.
	res, err := GreedyMCG(figure2())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.H) != 2 || res.H[0] != 3 || res.H[1] != 1 {
		t.Fatalf("H = %v, want [3 1]", res.H)
	}
	if len(res.H1) != 1 || res.H1[0] != 3 {
		t.Errorf("H1 = %v, want [3]", res.H1)
	}
	if len(res.H2) != 1 || res.H2[0] != 1 {
		t.Errorf("H2 = %v, want [1]", res.H2)
	}
	if res.NumCovered != 3 {
		t.Errorf("NumCovered = %d, want 3", res.NumCovered)
	}
	for g, c := range res.GroupCost {
		if c > 1+costEps { // both budgets in Figure 2 are 1
			t.Errorf("group %d cost %v exceeds budget 1", g, c)
		}
	}
}

func TestExactMaxCoverageFigure2(t *testing.T) {
	// Paper: an optimal MCG solution is {S4, S5} covering 4 users.
	res, err := ExactMaxCoverage(figure2())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCovered != 4 {
		t.Errorf("optimal coverage = %d, want 4", res.NumCovered)
	}
	for g, c := range res.GroupCost {
		if c > 1+costEps {
			t.Errorf("group %d cost %v exceeds budget 1", g, c)
		}
	}
}

func TestGreedySCGFigure5(t *testing.T) {
	// Paper §5.1 walk-through with B*=1/2: first MCG pass picks S4,
	// second picks S2; every user ends on a1 with total group cost 7/12.
	res, err := GreedySCG(figure7(), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("SCG with B*=1/2 should cover everyone")
	}
	if len(res.Picked) != 2 {
		t.Fatalf("Picked = %v, want two sets", res.Picked)
	}
	if res.Picked[0] != 3 || res.Picked[1] != 1 {
		t.Errorf("Picked = %v, want [3 1] (S4 then S2)", res.Picked)
	}
	if math.Abs(res.GroupCost[0]-7.0/12.0) > 1e-12 || res.GroupCost[1] != 0 {
		t.Errorf("GroupCost = %v, want [7/12 0]", res.GroupCost)
	}
	if math.Abs(res.MaxGroupCost-7.0/12.0) > 1e-12 {
		t.Errorf("MaxGroupCost = %v, want 7/12", res.MaxGroupCost)
	}
}

func TestExactMinMaxGroupCostFigure7(t *testing.T) {
	// Paper §3.2 BLA optimum: max load 1/2 (u1,u2,u3 on a1; u4,u5 on a2
	// = S2+S3 on a1 cost 1/2, S7 on a2 cost 1/3).
	best, picked, err := ExactMinMaxGroupCost(figure7())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best-0.5) > 1e-12 {
		t.Errorf("optimal max group cost = %v, want 1/2", best)
	}
	if len(picked) == 0 {
		t.Error("no picks returned")
	}
}

func TestGreedyCoverUncoverableElements(t *testing.T) {
	in := &Instance{
		NumElements: 3,
		Sets:        []Set{{Group: NoGroup, Cost: 1, Elems: []int{0}}},
	}
	res, err := GreedyCover(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCovered != 1 || !res.Covered[0] || res.Covered[1] || res.Covered[2] {
		t.Errorf("coverage = %v", res.Covered)
	}
}

func TestGreedyCoverZeroCostSets(t *testing.T) {
	in := &Instance{
		NumElements: 2,
		Sets: []Set{
			{Group: NoGroup, Cost: 0, Elems: []int{0}},
			{Group: NoGroup, Cost: 5, Elems: []int{0, 1}},
		},
	}
	res, err := GreedyCover(in)
	if err != nil {
		t.Fatal(err)
	}
	// The zero-cost set is infinitely effective and must go first.
	if res.Picked[0] != 0 {
		t.Errorf("Picked = %v, want zero-cost set first", res.Picked)
	}
	if res.NumCovered != 2 {
		t.Errorf("NumCovered = %d, want 2", res.NumCovered)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		in   Instance
	}{
		{"negative elements", Instance{NumElements: -1}},
		{"budget count mismatch", Instance{NumElements: 1, NumGroups: 2, Budgets: []float64{1}}},
		{"negative cost", Instance{NumElements: 1, Sets: []Set{{Group: NoGroup, Cost: -1}}}},
		{"unknown group", Instance{NumElements: 1, NumGroups: 1, Budgets: []float64{1}, Sets: []Set{{Group: 5, Cost: 1}}}},
		{"unknown element", Instance{NumElements: 1, Sets: []Set{{Group: NoGroup, Cost: 1, Elems: []int{7}}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.in.Validate(); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestGreedyMCGRequiresGroups(t *testing.T) {
	if _, err := GreedyMCG(&Instance{NumElements: 1}); err == nil {
		t.Error("MCG without groups should error")
	}
	in := &Instance{NumElements: 1, NumGroups: 1, Budgets: []float64{1},
		Sets: []Set{{Group: NoGroup, Cost: 1, Elems: []int{0}}}}
	if _, err := GreedyMCG(in); err == nil {
		t.Error("MCG with ungrouped set should error")
	}
}

func TestGreedySCGArgErrors(t *testing.T) {
	if _, err := GreedySCG(figure7(), 0, 0); err == nil {
		t.Error("zero B* should error")
	}
	if _, err := GreedySCG(&Instance{NumElements: 1}, 0.5, 0); err == nil {
		t.Error("SCG without groups should error")
	}
}

func TestGreedySCGIncompleteOnTinyBudget(t *testing.T) {
	// With B* below every set cost nothing can be picked.
	res, err := GreedySCG(figure7(), 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.NumCovered != 0 {
		t.Errorf("expected empty incomplete result, got %+v", res)
	}
}

func TestDefaultSCGIters(t *testing.T) {
	if got := DefaultSCGIters(1); got != 1 {
		t.Errorf("iters(1) = %d, want 1", got)
	}
	// log_{8/7}(5) ~ 12.05 → ceil 13 → +1 = 14.
	if got := DefaultSCGIters(5); got != 14 {
		t.Errorf("iters(5) = %d, want 14", got)
	}
	if got := DefaultSCGIters(400); got <= DefaultSCGIters(40) {
		t.Error("iteration bound must grow with n")
	}
}

// --- randomized property tests against the exact solvers ---

func randomInstance(rng *rand.Rand, maxSets, maxElems, groups int) *Instance {
	n := 1 + rng.Intn(maxElems)
	m := 1 + rng.Intn(maxSets)
	in := &Instance{NumElements: n, NumGroups: groups}
	for g := 0; g < groups; g++ {
		in.Budgets = append(in.Budgets, 0.3+rng.Float64())
	}
	for i := 0; i < m; i++ {
		s := Set{Group: NoGroup, Cost: 0.05 + rng.Float64()*0.5}
		if groups > 0 {
			s.Group = rng.Intn(groups)
		}
		for e := 0; e < n; e++ {
			if rng.Intn(3) == 0 {
				s.Elems = append(s.Elems, e)
			}
		}
		in.Sets = append(in.Sets, s)
	}
	return in
}

func TestGreedyCoverApproxFactor(t *testing.T) {
	// Property: greedy cost <= (ln n + 1) * optimal cost, and greedy
	// covers exactly the coverable elements.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng, 9, 10, 0)
		g, err := GreedyCover(in)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := ExactMinCover(in)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumCovered != opt.NumCovered {
			t.Fatalf("trial %d: greedy covered %d, optimal covered %d", trial, g.NumCovered, opt.NumCovered)
		}
		bound := (math.Log(float64(in.NumElements)) + 1) * opt.TotalCost
		if g.TotalCost > bound+1e-9 {
			t.Fatalf("trial %d: greedy cost %v exceeds (ln n+1)*OPT = %v", trial, g.TotalCost, bound)
		}
	}
}

func TestGreedyMCGApproxFactorAndBudgets(t *testing.T) {
	// Property: the repaired MCG result respects every group budget and
	// covers at least OPT/8 elements.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng, 9, 10, 2+rng.Intn(2))
		g, err := GreedyMCG(in)
		if err != nil {
			t.Fatal(err)
		}
		for gi, c := range g.GroupCost {
			if c > in.Budgets[gi]+costEps {
				t.Fatalf("trial %d: group %d cost %v > budget %v", trial, gi, c, in.Budgets[gi])
			}
		}
		opt, err := ExactMaxCoverage(in)
		if err != nil {
			t.Fatal(err)
		}
		if float64(g.NumCovered) < float64(opt.NumCovered)/8-1e-9 {
			t.Fatalf("trial %d: greedy covered %d < OPT/8 = %v", trial, g.NumCovered, float64(opt.NumCovered)/8)
		}
		if g.NumCovered > opt.NumCovered {
			t.Fatalf("trial %d: greedy %d beat 'optimal' %d — exact solver broken", trial, g.NumCovered, opt.NumCovered)
		}
	}
}

func TestGreedySCGTheorem4(t *testing.T) {
	// Property (Theorem 4): with B* = the exact SCG optimum, iterated
	// MCG covers everything and every group cost stays within
	// (log_{8/7} n + 1) * B*.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 8, 8, 2)
		opt, _, err := ExactMinMaxGroupCost(in)
		if err != nil {
			t.Fatal(err)
		}
		if opt <= 0 {
			continue // nothing coverable
		}
		res, err := GreedySCG(in, opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("trial %d: SCG with B*=OPT did not cover everything", trial)
		}
		bound := float64(DefaultSCGIters(in.NumElements)) * opt
		for g, c := range res.GroupCost {
			if c > bound+1e-9 {
				t.Fatalf("trial %d: group %d cost %v exceeds bound %v", trial, g, c, bound)
			}
		}
	}
}

func TestBitset(t *testing.T) {
	b := newBitset(130)
	b.set(0)
	b.set(64)
	b.set(129)
	if !b.get(0) || !b.get(64) || !b.get(129) || b.get(1) {
		t.Error("set/get broken")
	}
	if b.count() != 3 {
		t.Errorf("count = %d, want 3", b.count())
	}
	c := b.clone()
	c.set(5)
	if b.get(5) {
		t.Error("clone shares storage")
	}
	o := newBitset(130)
	o.set(64)
	if b.andCount(o) != 1 {
		t.Errorf("andCount = %d, want 1", b.andCount(o))
	}
	b.subtract(o)
	if b.get(64) || b.count() != 2 {
		t.Error("subtract broken")
	}
	b.or(o)
	if !b.get(64) {
		t.Error("or broken")
	}
	if b.empty() {
		t.Error("nonempty bitset reported empty")
	}
	if !newBitset(10).empty() {
		t.Error("fresh bitset not empty")
	}
	if firstSet(newBitset(10)) != -1 {
		t.Error("firstSet of empty should be -1")
	}
	if firstSet(b) != 0 {
		t.Errorf("firstSet = %d, want 0", firstSet(b))
	}
}

// GreedySCG runs one SCG call on a fresh Solver; see (*Solver).SCG. It is the
// fresh-solver reference that a reused Solver is checked against.
func GreedySCG(in *Instance, bStar float64, maxIters int) (*SCGResult, error) {
	s, err := NewSolver(in)
	if err != nil {
		return nil, err
	}
	return s.SCG(bStar, maxIters)
}
