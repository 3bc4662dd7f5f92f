package setcover

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
)

// MCGResult is the outcome of the greedy MCG algorithm plus the H1/H2
// budget repair of paper §4.1.
type MCGResult struct {
	// H is the raw greedy selection (may violate group budgets by at
	// most one set per group).
	H []int
	// H1 holds the sets of H that kept their group within budget; H2
	// holds, per group, the one set whose addition pushed the group
	// over. Both respect all budgets on their own.
	H1, H2 []int
	// Picked is whichever of H1/H2 covers more elements: the final,
	// budget-feasible answer.
	Picked []int
	// Covered and NumCovered describe the coverage of Picked.
	Covered    []bool
	NumCovered int
	// GroupCost[g] is the cost Picked charges to group g.
	GroupCost []float64
}

// GreedyMCG runs the paper's Centralized MNU greedy (Fig 3) on an MCG
// instance (cost version, no overall budget): in every round each group
// whose spent budget is still strictly below its limit nominates its
// most cost-effective set, the best nomination is added, and covered
// elements are removed. The raw selection H is then split into H1/H2
// and the better half is returned, giving the 8-approximation of
// Theorem 2.
//
// Sets whose individual cost exceeds their group budget are ignored
// (the paper assumes no such set exists; dropping them preserves that
// assumption without excluding anything feasible).
func GreedyMCG(in *Instance) (*MCGResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := checkGroups(in); err != nil {
		return nil, err
	}
	c := newCover(in)
	res := c.mcg(in.Budgets)
	res.GroupCost = make([]float64, in.NumGroups)
	for _, i := range res.Picked {
		res.GroupCost[in.Sets[i].Group] += in.Sets[i].Cost
		c.take(i)
	}
	res.Covered = c.covered
	return res, nil
}

// checkGroups rejects instances MCG cannot run on: no groups, or a
// set outside every group.
func checkGroups(in *Instance) error {
	if in.NumGroups <= 0 {
		return fmt.Errorf("setcover: MCG needs groups, got %d", in.NumGroups)
	}
	for i, s := range in.Sets {
		if s.Group == NoGroup {
			return fmt.Errorf("setcover: MCG set %d has no group", i)
		}
	}
	return nil
}

// mcg runs one Fig 3 greedy pass under budgets against c's current
// coverage and fills H, H1, H2, Picked and NumCovered, counting only
// elements not covered when the pass began. The pass covers
// tentatively while it picks H and rolls back before it returns, so c
// is left as it was found.
func (c *cover) mcg(budgets []float64) *MCGResult {
	in := c.in
	spent := make([]float64, in.NumGroups)
	var h []int

	// The nested "each eligible group nominates its best set, then the
	// best nomination wins" loop of Fig 3 selects exactly the globally
	// most cost-effective set among eligible groups. The heap holds
	// each group's nomination (groupTop) under its cached key; gains
	// only fall within a pass, so a cached key bounds the group's live
	// one and the first exact top is the global argmax. Eligibility
	// (line 5: a group accepts sets only while c(H ∩ G_i) < B_i) can
	// only be lost, so an ineligible group leaves in one pop. Sets
	// whose own cost exceeds their group budget are unusable (the
	// paper assumes none exist).
	c.tops = c.tops[:0]
	for g := 0; g < in.NumGroups; g++ {
		if top, ok := c.groupTop(g, budgets[g]); ok {
			c.tops = append(c.tops, top)
		}
	}
	heap.Init(&c.tops)
	m := c.mark()
	for c.left > 0 {
		best := c.nextTop(budgets, spent)
		if best == -1 {
			// Line 11: no group can contribute anything new.
			break
		}
		h = append(h, best)
		spent[in.Sets[best].Group] += in.Sets[best].Cost
		c.take(best)
	}
	c.undo(m)

	// H1/H2 split (paper §4.1): walk H in selection order, tracking
	// each group's running cost; the set that first pushes a group
	// over its budget goes to H2, everything else to H1.
	res := &MCGResult{H: h}
	run := make([]float64, in.NumGroups)
	for _, i := range h {
		g := in.Sets[i].Group
		run[g] += in.Sets[i].Cost
		if run[g] > budgets[g]+costEps {
			res.H2 = append(res.H2, i)
		} else {
			res.H1 = append(res.H1, i)
		}
	}
	c1 := c.coverage(res.H1)
	c2 := c.coverage(res.H2)
	if c1 >= c2 {
		res.Picked = res.H1
		res.NumCovered = c1
	} else {
		res.Picked = res.H2
		res.NumCovered = c2
	}
	return res
}

// groupTop returns group g's nomination under budget: the first set
// in greedy order among its sets that cost at most budget and still
// cover something. ok is false when there is none.
func (c *cover) groupTop(g int, budget float64) (top lazyEntry, ok bool) {
	for _, i := range c.groupSets[c.groupStart[g]:c.groupStart[g+1]] {
		gain := c.gain[i]
		if gain == 0 {
			continue
		}
		cost := c.in.Sets[i].Cost
		if cost > budget+costEps {
			continue
		}
		e := lazyEntry{set: int(i), gain: gain, eff: effectiveness(gain, cost)}
		if !ok || e.before(top) {
			top, ok = e, true
		}
	}
	return top, ok
}

// nextTop returns the pass's next pick, or -1 when no eligible group
// can cover anything. The picked set's group keeps its now stale entry
// and is re-nominated on its next visit.
func (c *cover) nextTop(budgets, spent []float64) int {
	h := &c.tops
	for len(*h) > 0 {
		g := c.in.Sets[(*h)[0].set].Group
		if !(spent[g] < budgets[g]-costEps) {
			heap.Pop(h)
			continue
		}
		top, ok := c.groupTop(g, budgets[g])
		if !ok {
			heap.Pop(h)
			continue
		}
		// The fresh nomination is exact and every other entry bounds
		// its group, so it wins when it beats the root's children.
		(*h)[0] = top
		if (len(*h) < 2 || top.before((*h)[1])) && (len(*h) < 3 || top.before((*h)[2])) {
			return top.set
		}
		heap.Fix(h, 0)
	}
	return -1
}

// SCGResult is the outcome of the iterated-MCG algorithm for Set Cover
// with Group Budgets.
type SCGResult struct {
	// Picked lists the selected set indices across all iterations.
	Picked []int
	// Covered / NumCovered describe the union coverage.
	Covered    []bool
	NumCovered int
	// GroupCost[g] is the total cost charged to group g.
	GroupCost []float64
	// MaxGroupCost is the largest group cost (the BLA objective).
	MaxGroupCost float64
	// Complete reports whether every coverable element got covered
	// within the iteration limit (if false, the B* guess was too low).
	Complete bool
	// Iterations is the number of MCG passes used.
	Iterations int
}

// Solver is one SCG session over a fixed instance. The coverage index
// is built once, and every SCG call rewinds it to the empty cover, so
// a B* search pays for the index once rather than once per guess.
// A Solver is not safe for concurrent use.
type Solver struct {
	c *cover
}

// NewSolver validates in for SCG and indexes it. in must not change
// while the Solver is in use.
func NewSolver(in *Instance) (*Solver, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.NumGroups <= 0 {
		return nil, fmt.Errorf("setcover: SCG needs groups, got %d", in.NumGroups)
	}
	if err := checkGroups(in); err != nil {
		return nil, err
	}
	return &Solver{c: newCover(in)}, nil
}

// SCG runs the paper's Centralized BLA inner loop (Fig 6): give
// every group budget bStar, run GreedyMCG, remove covered elements,
// and repeat up to maxIters times (the paper uses log_{8/7}(n)+1).
// maxIters <= 0 selects that default.
//
// Budgets are cumulative: iteration k hands each group (k+1)*bStar
// minus what it already spent, so a group that absorbed a lot early
// waits while cheaper groups catch up. Theorem 4's bound is unchanged
// — every group still ends at most maxIters*bStar — but the covers
// come out far more balanced than with per-iteration resets, which
// let the same few cost-effective groups absorb bStar every round.
//
// Each call starts from the empty cover, so its result does not
// depend on earlier calls; the result shares no memory with the
// Solver.
func (s *Solver) SCG(bStar float64, maxIters int) (*SCGResult, error) {
	if bStar <= 0 {
		return nil, fmt.Errorf("setcover: non-positive budget guess %v", bStar)
	}
	c := s.c
	in := c.in
	if maxIters <= 0 {
		maxIters = DefaultSCGIters(in.NumElements)
	}

	// One coverage state serves every pass: a pass leaves it as it
	// found it, and only the pass's Picked is committed. A set still
	// covers something exactly when its gain is positive.
	c.undo(0)
	res := &SCGResult{GroupCost: make([]float64, in.NumGroups)}
	budgets := make([]float64, in.NumGroups)
	for it := 0; it < maxIters; it++ {
		for g := range budgets {
			budgets[g] = bStar*float64(it+1) - res.GroupCost[g]
			if budgets[g] < 0 {
				budgets[g] = 0
			}
		}
		mcg := c.mcg(budgets)
		res.Iterations = it + 1
		if mcg.NumCovered == 0 {
			// Nothing covered this round. Under cumulative budgets a
			// later round hands out more, so only give up when no
			// useful set is merely cost-blocked — otherwise the
			// remaining elements are plain uncoverable.
			if !c.anyCostBlocked(budgets) {
				break
			}
			continue
		}
		for _, i := range mcg.Picked {
			res.Picked = append(res.Picked, i)
			res.GroupCost[in.Sets[i].Group] += in.Sets[i].Cost
			c.take(i)
		}
		if c.left == 0 {
			break
		}
	}
	for _, cost := range res.GroupCost {
		if cost > res.MaxGroupCost {
			res.MaxGroupCost = cost
		}
	}
	res.Covered = slices.Clone(c.covered)
	res.NumCovered = len(c.log) // every covered element is logged once
	res.Complete = c.left == 0
	return res, nil
}

// DefaultSCGIters returns the paper's iteration bound log_{8/7}(n)+1.
func DefaultSCGIters(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log(float64(n))/math.Log(8.0/7.0))) + 1
}

// anyCostBlocked reports whether some set still covering elements is
// unaffordable under its group's budget — the only situation a later
// cumulative-budget iteration can unblock.
func (c *cover) anyCostBlocked(budgets []float64) bool {
	for i, s := range c.in.Sets {
		if c.gain[i] > 0 && s.Cost > budgets[s.Group]+costEps {
			return true
		}
	}
	return false
}
