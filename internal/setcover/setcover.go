// Package setcover implements the covering problems the paper reduces
// its association-control objectives to: weighted greedy Set Cover
// (used by Centralized MLA, paper Fig 8), greedy Maximum Coverage with
// Group Budgets (MCG, Chekuri & Kumar 2004; used by Centralized MNU,
// paper Fig 3) including the H1/H2 budget-repair split, and Set Cover
// with Group Budgets (SCG; used by Centralized BLA, paper Fig 6) via
// iterated MCG.
//
// Every greedy call works on one sparse coverage state (see cover):
// an element → sets index with live per-set gains, so a pick costs
// time proportional to the elements it covers, not to the ground set.
// A Solver keeps that state across SCG calls on one instance.
package setcover

import (
	"fmt"
	"math"
)

// NoGroup marks a set that belongs to no group (plain set cover).
const NoGroup = -1

// Set is one candidate subset of the ground set {0..NumElements-1}.
type Set struct {
	// Group is the index of the group this set belongs to, or NoGroup.
	// In the paper's reductions a group gathers all sets of one AP.
	Group int
	// Cost is the multicast load this set charges to its group's AP.
	Cost float64
	// Elems are the covered element (user) indices.
	Elems []int
}

// Instance is one covering problem instance.
type Instance struct {
	// NumElements is the ground-set size (number of users).
	NumElements int
	// Sets are the candidate subsets.
	Sets []Set
	// NumGroups is the number of groups; group indices are
	// 0..NumGroups-1. Zero for plain set cover.
	NumGroups int
	// Budgets[g] is the budget of group g (MCG/SCG only).
	Budgets []float64
}

// Validate checks structural consistency.
func (in *Instance) Validate() error {
	if in.NumElements < 0 {
		return fmt.Errorf("setcover: negative element count %d", in.NumElements)
	}
	if in.NumGroups > 0 && len(in.Budgets) != in.NumGroups {
		return fmt.Errorf("setcover: %d groups but %d budgets", in.NumGroups, len(in.Budgets))
	}
	for i, s := range in.Sets {
		if s.Cost < 0 {
			return fmt.Errorf("setcover: set %d has negative cost %v", i, s.Cost)
		}
		if s.Group != NoGroup && (s.Group < 0 || s.Group >= in.NumGroups) {
			return fmt.Errorf("setcover: set %d in unknown group %d", i, s.Group)
		}
		for _, e := range s.Elems {
			if e < 0 || e >= in.NumElements {
				return fmt.Errorf("setcover: set %d covers unknown element %d", i, e)
			}
		}
	}
	return nil
}

// costEps absorbs floating-point noise in budget comparisons.
const costEps = 1e-9

// CoverResult is the outcome of a covering algorithm.
type CoverResult struct {
	// Picked lists indices into Instance.Sets in selection order.
	Picked []int
	// Covered[e] reports whether element e is covered by Picked.
	Covered []bool
	// NumCovered is the number of covered elements.
	NumCovered int
	// TotalCost is the summed cost of the picked sets.
	TotalCost float64
}

// GreedyCover is the classic weighted greedy set-cover algorithm
// (paper Fig 8, "CostSC"): repeatedly pick the set maximizing
// newly-covered-elements per unit cost, until no set adds coverage.
// It achieves the (ln n + 1) factor the paper cites (Vazirani 2001).
// Elements no set covers are simply left uncovered.
func GreedyCover(in *Instance) (*CoverResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	c := newCover(in)
	res := &CoverResult{}
	sel := newLazySelector(c)
	for c.left > 0 {
		best, gain := sel.next()
		if best == -1 {
			break
		}
		res.Picked = append(res.Picked, best)
		res.TotalCost += in.Sets[best].Cost
		res.NumCovered += gain
		c.take(best)
	}
	res.Covered = c.covered
	return res, nil
}

// effectiveness is gain/cost with zero-cost sets treated as infinitely
// effective (they can only help).
func effectiveness(gain int, cost float64) float64 {
	if cost <= 0 {
		return math.Inf(1)
	}
	return float64(gain) / cost
}
