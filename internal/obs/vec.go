package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// Vec types: labeled metric families over one label key and a label
// set that is fixed (bounded) at registration. Every series is
// created up front, so exposition is deterministic — a family never
// grows mid-scrape, series order is the values order given, and a
// scrape taken before any traffic already shows every series at zero.
// With panics on a value outside the registered set: label
// cardinality is a registration-time decision, not a runtime one.
// At(i) is the hot-path accessor — callers that know the dense index
// (a stage enum) skip the map lookup entirely.

// vecIndex is the shared value->index plumbing of the Vec types.
type vecIndex struct {
	name   string
	key    string
	values []string
	byVal  map[string]int
}

func newVecIndex(name, key string, values []string) vecIndex {
	if len(values) == 0 {
		panic(fmt.Sprintf("obs: vec %q registered with no label values", name))
	}
	idx := vecIndex{name: name, key: key, values: append([]string(nil), values...), byVal: make(map[string]int, len(values))}
	for i, v := range values {
		if _, dup := idx.byVal[v]; dup {
			panic(fmt.Sprintf("obs: vec %q has duplicate label value %q", name, v))
		}
		idx.byVal[v] = i
	}
	return idx
}

func (idx *vecIndex) index(value string) int {
	i, ok := idx.byVal[value]
	if !ok {
		panic(fmt.Sprintf("obs: vec %q has no series %s=%q (bounded label set: %v)", idx.name, idx.key, value, idx.values))
	}
	return i
}

// Key returns the label key.
func (idx *vecIndex) Key() string { return idx.key }

// Values returns the registered label values in series order.
func (idx *vecIndex) Values() []string { return append([]string(nil), idx.values...) }

// CounterVec is a counter family over one label key.
type CounterVec struct {
	vecIndex
	dense []*Counter
}

// CounterVec returns the counter family (name, key, values), creating
// every series on first registration. Idempotent like the scalar
// constructors; the values set must match across calls (extra values
// on a later call extend the family).
func (r *Registry) CounterVec(name, help, key string, values []string) *CounterVec {
	v := &CounterVec{vecIndex: newVecIndex(name, key, values)}
	v.dense = make([]*Counter, len(v.values))
	for i, val := range v.values {
		v.dense[i] = r.Counter(name, help, L(key, val))
	}
	return v
}

// With returns the series for value, panicking on a value outside the
// registered set.
func (v *CounterVec) With(value string) *Counter { return v.dense[v.index(value)] }

// At returns the i-th series (values order).
func (v *CounterVec) At(i int) *Counter { return v.dense[i] }

// GaugeVec is a gauge family over one label key.
type GaugeVec struct {
	vecIndex
	dense []*Gauge
}

// GaugeVec returns the gauge family (name, key, values); see
// CounterVec for semantics.
func (r *Registry) GaugeVec(name, help, key string, values []string) *GaugeVec {
	v := &GaugeVec{vecIndex: newVecIndex(name, key, values)}
	v.dense = make([]*Gauge, len(v.values))
	for i, val := range v.values {
		v.dense[i] = r.Gauge(name, help, L(key, val))
	}
	return v
}

// With returns the series for value, panicking on a value outside the
// registered set.
func (v *GaugeVec) With(value string) *Gauge { return v.dense[v.index(value)] }

// At returns the i-th series (values order).
func (v *GaugeVec) At(i int) *Gauge { return v.dense[i] }

// HistogramVec is a histogram family over one label key. All series
// share the same bucket bounds.
type HistogramVec struct {
	vecIndex
	dense []*Histogram
}

// HistogramVec returns the histogram family (name, key, values) with
// the given bounds (nil selects DefaultLatencyBounds); see CounterVec
// for semantics.
func (r *Registry) HistogramVec(name, help string, bounds []float64, key string, values []string) *HistogramVec {
	v := &HistogramVec{vecIndex: newVecIndex(name, key, values)}
	v.dense = make([]*Histogram, len(v.values))
	for i, val := range v.values {
		v.dense[i] = r.Histogram(name, help, bounds, L(key, val))
	}
	return v
}

// With returns the series for value, panicking on a value outside the
// registered set.
func (v *HistogramVec) With(value string) *Histogram { return v.dense[v.index(value)] }

// At returns the i-th series (values order).
func (v *HistogramVec) At(i int) *Histogram { return v.dense[i] }

// FloatCounter is a monotonically increasing float64 counter (CAS
// add), for totals that accumulate fractional units — busy-seconds,
// channel seconds of airtime. Exposed as TYPE counter.
type FloatCounter struct{ bits atomic.Uint64 }

// Add adds d, which must be non-negative to keep the counter monotone.
func (c *FloatCounter) Add(d float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *FloatCounter) writeProm(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %g\n", name, labels, c.Value())
	return err
}

// FloatCounter returns the float counter registered under (name,
// labels), creating it on first use.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	return r.lookup(name, help, TypeCounter, labels, func() instrument { return &FloatCounter{} }).(*FloatCounter)
}

// LocalHistogram is a single-goroutine staging buffer in front of a
// shared Histogram: Observe is a binary search plus three plain (non
// atomic) writes, and Flush folds the staged observations into the
// shared histogram in one pass of atomic adds. The engine observes
// per-event stage latencies locally and flushes once per batch, so the
// per-event span cost stays off the shared atomics.
// Not safe for concurrent use — each writer owns its own.
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
