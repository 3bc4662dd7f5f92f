package setcover

import (
	"fmt"
	"math"
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
	// most cost-effective set among eligible groups, so a single lazy
	// selector implements it. Eligibility (line 5: a group accepts
	// sets only while c(H ∩ G_i) < B_i) can only be lost, never
	// regained, which is what the lazy selector requires. Sets whose
	// own cost exceeds their group budget are unusable (the paper
	// assumes none exist).
	c.sel.seed(func(i int) bool {
		return in.Sets[i].Cost <= budgets[in.Sets[i].Group]+costEps
	})
	m := c.mark()
	for c.left > 0 {
		best, _ := c.sel.next(func(i int) bool {
			g := in.Sets[i].Group
			return spent[g] < budgets[g]-costEps
		})
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

// GreedySCG runs the paper's Centralized BLA inner loop (Fig 6): give
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
func GreedySCG(in *Instance, bStar float64, maxIters int) (*SCGResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.NumGroups <= 0 {
		return nil, fmt.Errorf("setcover: SCG needs groups, got %d", in.NumGroups)
	}
	if bStar <= 0 {
		return nil, fmt.Errorf("setcover: non-positive budget guess %v", bStar)
	}
	if maxIters <= 0 {
		maxIters = DefaultSCGIters(in.NumElements)
	}

	if err := checkGroups(in); err != nil {
		return nil, err
	}

	// One coverage state serves every pass: a pass leaves it as it
	// found it, and only the pass's Picked is committed. A set still
	// covers something exactly when its gain is positive.
	c := newCover(in)
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
	res.Covered = c.covered
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
