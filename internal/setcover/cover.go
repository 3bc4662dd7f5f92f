package setcover

import "slices"

// cover is the sparse coverage state the greedy algorithms work on. It
// is built once per GreedyCover / GreedyMCG call, and once per Solver,
// whose SCG calls rewind it; every pass of a call shares it:
//
//   - an element → sets index in CSR form (rowStart/rowSets), each set
//     listed once per distinct element it covers;
//   - gain[set], the number of distinct uncovered elements of the set,
//     kept live: covering element e decrements gain for every set in
//     e's row, so the lazy selector reads a gain in O(1);
//   - covered[e] and left, the number of coverable elements (those some
//     set covers) still uncovered;
//   - an undo log of covered elements, so a pass can cover
//     tentatively and roll back to a mark, and an SCG call can rewind
//     to the empty cover with undo(0);
//   - a group → sets index in CSR form (groupStart/groupSets, sets
//     ascending) and the heap of group tops an MCG pass selects from.
//
// Covering costs O(Σ row length) over the newly covered elements, so a
// whole pass is O(Σ|S|) where dense bitsets cost O(sets × n/64).
type cover struct {
	in       *Instance
	rowStart []int32
	rowSets  []int32
	gain     []int
	covered  []bool
	left     int
	log      []int32

	groupStart []int32
	groupSets  []int32
	tops       lazyHeap
}

// newCover indexes in with nothing covered. Repeated elements within a
// set count once.
func newCover(in *Instance) *cover {
	n := in.NumElements
	c := &cover{
		in:       in,
		rowStart: make([]int32, n+1),
		gain:     make([]int, len(in.Sets)),
		covered:  make([]bool, n),
	}
	// next[e] is first a stamp (1 + the last set seen listing e), then
	// the fill cursor of e's row.
	next := make([]int32, n)
	for i, s := range in.Sets {
		for _, e := range s.Elems {
			if next[e] != int32(i+1) {
				next[e] = int32(i + 1)
				c.rowStart[e+1]++
				c.gain[i]++
			}
		}
	}
	for e := 0; e < n; e++ {
		if c.rowStart[e+1] > 0 {
			c.left++
		}
		c.rowStart[e+1] += c.rowStart[e]
	}
	c.rowSets = make([]int32, c.rowStart[n])
	copy(next, c.rowStart[:n])
	for i, s := range in.Sets {
		for _, e := range s.Elems {
			// Sets fill rows in ascending order, so a repeat of e in
			// set i is exactly "the row's last entry is i".
			if next[e] > c.rowStart[e] && c.rowSets[next[e]-1] == int32(i) {
				continue
			}
			c.rowSets[next[e]] = int32(i)
			next[e]++
		}
	}
	if in.NumGroups > 0 {
		c.groupStart = make([]int32, in.NumGroups+1)
		for _, s := range in.Sets {
			if s.Group != NoGroup {
				c.groupStart[s.Group+1]++
			}
		}
		for g := 0; g < in.NumGroups; g++ {
			c.groupStart[g+1] += c.groupStart[g]
		}
		c.groupSets = make([]int32, c.groupStart[in.NumGroups])
		fill := slices.Clone(c.groupStart[:in.NumGroups])
		for i, s := range in.Sets {
			if s.Group != NoGroup {
				c.groupSets[fill[s.Group]] = int32(i)
				fill[s.Group]++
			}
		}
	}
	return c
}

// take covers the elements of set that are still uncovered.
func (c *cover) take(set int) {
	for _, e := range c.in.Sets[set].Elems {
		if c.covered[e] {
			continue
		}
		c.covered[e] = true
		c.left--
		c.log = append(c.log, int32(e))
		for _, s := range c.rowSets[c.rowStart[e]:c.rowStart[e+1]] {
			c.gain[s]--
		}
	}
}

// mark returns the undo position of the current state.
func (c *cover) mark() int { return len(c.log) }

// undo uncovers everything covered since mark.
func (c *cover) undo(mark int) {
	for _, e := range c.log[mark:] {
		c.covered[e] = false
		c.left++
		for _, s := range c.rowSets[c.rowStart[e]:c.rowStart[e+1]] {
			c.gain[s]++
		}
	}
	c.log = c.log[:mark]
}

// coverage returns how many uncovered elements picked would cover,
// leaving the state unchanged.
func (c *cover) coverage(picked []int) int {
	m := c.mark()
	for _, i := range picked {
		c.take(i)
	}
	n := c.mark() - m
	c.undo(m)
	return n
}
