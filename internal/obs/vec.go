package obs

import (
	"fmt"
	"math"
	"sort"
)

// HistogramVec is a histogram family over one label key, with a label
// set fixed (bounded) at registration; all series share the same
// bucket bounds. Every series is created up front, so exposition is
// deterministic — a family never grows mid-scrape, series order is the
// values order given, and a scrape taken before any traffic already
// shows every series at zero. With panics on a value outside the
// registered set: label cardinality is a registration-time decision,
// not a runtime one. At(i) is the hot-path accessor — callers that
// know the dense index (a stage enum) skip the map lookup entirely.
type HistogramVec struct {
	name   string
	key    string
	values []string
	byVal  map[string]int
	dense  []*Histogram
}

// HistogramVec returns the histogram family (name, key, values) with
// the given bounds (nil selects DefaultLatencyBounds), creating every
// series on first registration. Idempotent like the scalar
// constructors; the values set must match across calls (extra values
// on a later call extend the family).
func (r *Registry) HistogramVec(name, help string, bounds []float64, key string, values []string) *HistogramVec {
	if len(values) == 0 {
		panic(fmt.Sprintf("obs: vec %q registered with no label values", name))
	}
	v := &HistogramVec{name: name, key: key, values: append([]string(nil), values...), byVal: make(map[string]int, len(values))}
	for i, val := range values {
		if _, dup := v.byVal[val]; dup {
			panic(fmt.Sprintf("obs: vec %q has duplicate label value %q", name, val))
		}
		v.byVal[val] = i
		v.dense = append(v.dense, r.Histogram(name, help, bounds, L(key, val)))
	}
	return v
}

// With returns the series for value, panicking on a value outside the
// registered set.
func (v *HistogramVec) With(value string) *Histogram {
	i, ok := v.byVal[value]
	if !ok {
		panic(fmt.Sprintf("obs: vec %q has no series %s=%q (bounded label set: %v)", v.name, v.key, value, v.values))
	}
	return v.dense[i]
}

// At returns the i-th series (values order).
func (v *HistogramVec) At(i int) *Histogram { return v.dense[i] }

// LocalHistogram is a single-goroutine staging buffer in front of a
// shared Histogram: Observe is a binary search plus three plain (non
// atomic) writes, and Flush folds the staged observations into the
// shared histogram in one pass of atomic adds. The engine observes
// per-event stage latencies locally and flushes once per batch, so the
// per-event span cost stays off the shared atomics.
// Not safe for concurrent use — each goroutine owns its own.
type LocalHistogram struct {
	h      *Histogram
	counts []uint64
	sum    float64
	n      uint64
}

// Local returns a new staging buffer for h.
func (h *Histogram) Local() *LocalHistogram {
	return &LocalHistogram{h: h, counts: make([]uint64, len(h.counts))}
}

// Observe stages v.
func (l *LocalHistogram) Observe(v float64) {
	i := sort.SearchFloat64s(l.h.bounds, v)
	l.counts[i]++
	l.n++
	l.sum += v
}

// Flush folds the staged observations into the shared histogram and
// resets the buffer. Cheap when nothing was staged.
func (l *LocalHistogram) Flush() {
	if l.n == 0 {
		return
	}
	for i, c := range l.counts {
		if c != 0 {
			l.h.counts[i].Add(c)
			l.counts[i] = 0
		}
	}
	l.h.count.Add(l.n)
	for {
		old := l.h.sumBits.Load()
		if l.h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+l.sum)) {
			break
		}
	}
	l.n, l.sum = 0, 0
}
