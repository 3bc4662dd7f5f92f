package setcover

import "container/heap"

// The greedy algorithms select argmax gain/cost over thousands of sets
// per pick. Because coverage gain is submodular — it only shrinks as
// elements get covered — cached gains are upper bounds, so the classic
// lazy-greedy trick applies: keep sets in a max-heap by cached
// effectiveness, re-evaluate only the top, and select it when its
// fresh value still beats the next cached one. Selection order is
// identical to the naive scan up to ties, which the heap breaks
// deterministically (effectiveness, then gain, then lower set index).
// A fresh value is the cover's live gain counter, an O(1) read.

// lazyEntry is one heap node.
type lazyEntry struct {
	set  int
	gain int
	eff  float64
}

// lazyHeap is a max-heap of cached candidates.
type lazyHeap []lazyEntry

func (h lazyHeap) Len() int { return len(h) }

func (h lazyHeap) Less(i, j int) bool {
	if h[i].eff != h[j].eff {
		return h[i].eff > h[j].eff
	}
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].set < h[j].set
}

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

// lazySelector yields greedy picks against its cover's live gains. A
// cover owns one selector and reseeds it for every pass, reusing the
// heap's storage.
type lazySelector struct {
	c *cover
	h lazyHeap
}

// seed refills the heap with every usable set's current gain.
func (s *lazySelector) seed(usable func(set int) bool) {
	in := s.c.in
	s.h = s.h[:0]
	for i := range in.Sets {
		if usable != nil && !usable(i) {
			continue
		}
		gain := s.c.gain[i]
		if gain == 0 {
			continue
		}
		s.h = append(s.h, lazyEntry{set: i, gain: gain, eff: effectiveness(gain, in.Sets[i].Cost)})
	}
	heap.Init(&s.h)
}

// next returns the next greedy pick among sets for which eligible
// returns true, or -1 when no eligible set adds coverage. Ineligible
// sets are dropped permanently, so eligibility must never come back
// (true for budget exhaustion, the only caller use).
func (s *lazySelector) next(eligible func(set int) bool) (int, int) {
	for s.h.Len() > 0 {
		top := s.h[0]
		if eligible != nil && !eligible(top.set) {
			heap.Pop(&s.h)
			continue
		}
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
