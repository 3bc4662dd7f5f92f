package setcover

import "container/heap"

// The greedy algorithms select argmax gain/cost over thousands of sets
// per pick. Because coverage gain is submodular — it only shrinks as
// elements get covered — cached gains are upper bounds, so the classic
// lazy-greedy trick applies: keep candidates in a max-heap by cached
// effectiveness, re-evaluate only the top, and select it when its
// fresh value still beats the next cached one. Selection order is
// identical to the naive scan up to ties, which the heap breaks
// deterministically (effectiveness, then gain, then lower set index).
// A fresh value is the cover's live gain counter, an O(1) read.
//
// GreedyCover keeps one entry per set (lazySelector); an MCG pass
// keeps one entry per group, caching the group's best set
// ((*cover).mcg).

// lazyEntry is one heap node: a set and its cached key.
type lazyEntry struct {
	set  int
	gain int
	eff  float64
}

// before reports whether e ranks ahead of o in the greedy order. The
// order is total: set indices are unique.
func (e lazyEntry) before(o lazyEntry) bool {
	if e.eff != o.eff {
		return e.eff > o.eff
	}
	if e.gain != o.gain {
		return e.gain > o.gain
	}
	return e.set < o.set
}

// lazyHeap is a max-heap of cached candidates.
type lazyHeap []lazyEntry

func (h lazyHeap) Len() int { return len(h) }

func (h lazyHeap) Less(i, j int) bool { return h[i].before(h[j]) }

func (h lazyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *lazyHeap) Push(x any) { *h = append(*h, x.(lazyEntry)) }

// Pop implements heap.Interface.
func (h *lazyHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// lazySelector yields GreedyCover's picks against its cover's live
// gains, one heap entry per set.
type lazySelector struct {
	c *cover
	h lazyHeap
}

// newLazySelector seeds a selector with every set's current gain.
func newLazySelector(c *cover) *lazySelector {
	s := &lazySelector{c: c}
	for i, set := range c.in.Sets {
		if gain := c.gain[i]; gain > 0 {
			s.h = append(s.h, lazyEntry{set: i, gain: gain, eff: effectiveness(gain, set.Cost)})
		}
	}
	heap.Init(&s.h)
	return s
}

// next returns the next greedy pick and its gain, or -1 when no set
// adds coverage.
func (s *lazySelector) next() (int, int) {
	for s.h.Len() > 0 {
		top := s.h[0]
		gain := s.c.gain[top.set]
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
		s.h[0].eff = effectiveness(gain, s.c.in.Sets[top.set].Cost)
		heap.Fix(&s.h, 0)
	}
	return -1, 0
}
