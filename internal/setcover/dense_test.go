package setcover

// The dense reference greedy: GreedyCover, GreedyMCG and GreedySCG
// over one bitset per set, with a pruned sub-instance per SCG pass.
// The differential tests (sparse_test.go) demand that the sparse greedy
// returns the same results in every field; the exact solvers in
// exact_test.go reuse its bitsets.

import (
	"container/heap"
	"fmt"
	"math/bits"
)

// bitset is a fixed-size set of element indices packed into words.
type bitset []uint64

func newBitset(n int) bitset {
	return make(bitset, (n+63)/64)
}

func (b bitset) set(i int) {
	b[i/64] |= 1 << (uint(i) % 64)
}

func (b bitset) get(i int) bool {
	return b[i/64]&(1<<(uint(i)%64)) != 0
}

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// andCount returns |b ∩ o| without allocating.
func (b bitset) andCount(o bitset) int {
	n := 0
	for i, w := range b {
		n += bits.OnesCount64(w & o[i])
	}
	return n
}

// subtract removes all elements of o from b in place.
func (b bitset) subtract(o bitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

// or adds all elements of o to b in place.
func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// empty reports whether no bit is set.
func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// masks precomputes each set's element bitset.
func (in *Instance) masks() []bitset {
	ms := make([]bitset, len(in.Sets))
	for i, s := range in.Sets {
		m := newBitset(in.NumElements)
		for _, e := range s.Elems {
			m.set(e)
		}
		ms[i] = m
	}
	return ms
}

// coverable returns the bitset of elements covered by at least one set.
func (in *Instance) coverable(ms []bitset) bitset {
	c := newBitset(in.NumElements)
	for _, m := range ms {
		c.or(m)
	}
	return c
}

// denseGreedyCover is GreedyCover on dense bitsets.
func denseGreedyCover(in *Instance) (*CoverResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	ms := in.masks()
	uncov := in.coverable(ms)
	res := &CoverResult{Covered: make([]bool, in.NumElements)}
	sel := newDenseSelector(in, ms, uncov, nil)
	for !uncov.empty() {
		best, gain := sel.next(nil)
		if best == -1 {
			break
		}
		res.Picked = append(res.Picked, best)
		res.TotalCost += in.Sets[best].Cost
		res.NumCovered += gain
		sel.take(best)
	}
	markCovered(in, res)
	return res, nil
}

func markCovered(in *Instance, res *CoverResult) {
	for _, i := range res.Picked {
		for _, e := range in.Sets[i].Elems {
			res.Covered[e] = true
		}
	}
}

// denseSelector is the lazy selector over dense bitsets.
type denseSelector struct {
	in    *Instance
	ms    []bitset
	uncov bitset
	h     lazyHeap
}

// newDenseSelector seeds the heap with every set's initial gain.
func newDenseSelector(in *Instance, ms []bitset, uncov bitset, usable func(set int) bool) *denseSelector {
	s := &denseSelector{in: in, ms: ms, uncov: uncov}
	s.h = make(lazyHeap, 0, len(in.Sets))
	for i := range in.Sets {
		if usable != nil && !usable(i) {
			continue
		}
		gain := ms[i].andCount(uncov)
		if gain == 0 {
			continue
		}
		s.h = append(s.h, lazyEntry{set: i, gain: gain, eff: effectiveness(gain, in.Sets[i].Cost)})
	}
	heap.Init(&s.h)
	return s
}

// next returns the next greedy pick among sets for which eligible
// returns true, or -1 when no eligible set adds coverage. Ineligible
// sets are dropped permanently, so eligibility must never come back
// (true for budget exhaustion, the only caller use).
func (s *denseSelector) next(eligible func(set int) bool) (int, int) {
	for s.h.Len() > 0 {
		top := s.h[0]
		if eligible != nil && !eligible(top.set) {
			heap.Pop(&s.h)
			continue
		}
		gain := s.ms[top.set].andCount(s.uncov)
		if gain == 0 {
			heap.Pop(&s.h)
			continue
		}
		if gain == top.gain {
			// Cached value is exact: this is the argmax.
			heap.Pop(&s.h)
			return top.set, gain
		}
		// Stale: refresh in place and let the heap re-order.
		s.h[0].gain = gain
		s.h[0].eff = effectiveness(gain, s.in.Sets[top.set].Cost)
		heap.Fix(&s.h, 0)
	}
	return -1, 0
}

// take marks the pick's elements covered.
func (s *denseSelector) take(set int) {
	s.uncov.subtract(s.ms[set])
}

// denseGreedyMCG is GreedyMCG on dense bitsets.
func denseGreedyMCG(in *Instance) (*MCGResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.NumGroups <= 0 {
		return nil, fmt.Errorf("setcover: MCG needs groups, got %d", in.NumGroups)
	}
	for i, s := range in.Sets {
		if s.Group == NoGroup {
			return nil, fmt.Errorf("setcover: MCG set %d has no group", i)
		}
	}
	ms := in.masks()
	uncov := in.coverable(ms)
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
	sel := newDenseSelector(in, ms, uncov, func(i int) bool {
		return in.Sets[i].Cost <= in.Budgets[in.Sets[i].Group]+costEps
	})
	for !uncov.empty() {
		best, gain := sel.next(func(i int) bool {
			g := in.Sets[i].Group
			return spent[g] < in.Budgets[g]-costEps
		})
		if best == -1 || gain == 0 {
			// Line 11: no group can contribute anything new.
			break
		}
		h = append(h, best)
		spent[in.Sets[best].Group] += in.Sets[best].Cost
		sel.take(best)
	}

	// H1/H2 split (paper §4.1): walk H in selection order, tracking
	// each group's running cost; the set that first pushes a group
	// over its budget goes to H2, everything else to H1.
	res := &MCGResult{H: h}
	run := make([]float64, in.NumGroups)
	for _, i := range h {
		g := in.Sets[i].Group
		run[g] += in.Sets[i].Cost
		if run[g] > in.Budgets[g]+costEps {
			res.H2 = append(res.H2, i)
		} else {
			res.H1 = append(res.H1, i)
		}
	}
	c1 := coverageCount(in, ms, res.H1)
	c2 := coverageCount(in, ms, res.H2)
	if c1 >= c2 {
		res.Picked = res.H1
		res.NumCovered = c1
	} else {
		res.Picked = res.H2
		res.NumCovered = c2
	}
	res.Covered = make([]bool, in.NumElements)
	res.GroupCost = make([]float64, in.NumGroups)
	for _, i := range res.Picked {
		res.GroupCost[in.Sets[i].Group] += in.Sets[i].Cost
		for _, e := range in.Sets[i].Elems {
			res.Covered[e] = true
		}
	}
	return res, nil
}

func coverageCount(in *Instance, ms []bitset, picked []int) int {
	u := newBitset(in.NumElements)
	for _, i := range picked {
		u.or(ms[i])
	}
	return u.count()
}

// denseGreedySCG is GreedySCG on dense bitsets, one sub-instance per
// MCG pass.
func denseGreedySCG(in *Instance, bStar float64, maxIters int) (*SCGResult, error) {
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

	res := &SCGResult{
		Covered:   make([]bool, in.NumElements),
		GroupCost: make([]float64, in.NumGroups),
	}
	remaining := make([]Set, len(in.Sets))
	copy(remaining, in.Sets)
	covered := newBitset(in.NumElements)

	for it := 0; it < maxIters; it++ {
		budgets := make([]float64, in.NumGroups)
		for g := range budgets {
			budgets[g] = bStar*float64(it+1) - res.GroupCost[g]
			if budgets[g] < 0 {
				budgets[g] = 0
			}
		}
		sub := &Instance{
			NumElements: in.NumElements,
			Sets:        pruneCovered(remaining, covered),
			NumGroups:   in.NumGroups,
			Budgets:     budgets,
		}
		mcg, err := denseGreedyMCG(sub)
		if err != nil {
			return nil, err
		}
		res.Iterations = it + 1
		if mcg.NumCovered == 0 {
			// Nothing covered this round. Under cumulative budgets a
			// later round hands out more, so only give up when no
			// useful set is merely cost-blocked — otherwise the
			// remaining elements are plain uncoverable.
			if !denseAnyCostBlocked(sub) {
				break
			}
			continue
		}
		for _, i := range mcg.Picked {
			res.Picked = append(res.Picked, i)
			res.GroupCost[sub.Sets[i].Group] += sub.Sets[i].Cost
			for _, e := range sub.Sets[i].Elems {
				if !res.Covered[e] {
					res.Covered[e] = true
					res.NumCovered++
				}
				covered.set(e)
			}
		}
		if allCoverableCovered(in, covered) {
			break
		}
	}
	for _, c := range res.GroupCost {
		if c > res.MaxGroupCost {
			res.MaxGroupCost = c
		}
	}
	res.Complete = allCoverableCovered(in, covered)
	return res, nil
}

// denseAnyCostBlocked reports whether some set still covering elements is
// unaffordable under its group's current budget — the only situation
// a later cumulative-budget iteration can unblock.
func denseAnyCostBlocked(in *Instance) bool {
	for _, s := range in.Sets {
		if len(s.Elems) > 0 && s.Cost > in.Budgets[s.Group]+costEps {
			return true
		}
	}
	return false
}

// pruneCovered removes already-covered elements from every set. Set
// indices are preserved so callers can map picks back.
func pruneCovered(sets []Set, covered bitset) []Set {
	out := make([]Set, len(sets))
	for i, s := range sets {
		ns := Set{Group: s.Group, Cost: s.Cost}
		for _, e := range s.Elems {
			if !covered.get(e) {
				ns.Elems = append(ns.Elems, e)
			}
		}
		out[i] = ns
	}
	return out
}

func allCoverableCovered(in *Instance, covered bitset) bool {
	for _, s := range in.Sets {
		for _, e := range s.Elems {
			if !covered.get(e) {
				return false
			}
		}
	}
	return true
}
