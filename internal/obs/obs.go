// Package obs is the repository's unified observability layer: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms with Prometheus text exposition) plus a
// structured trace recorder (typed JSONL events with pluggable sinks
// and deterministic sampling).
//
// Every hot layer instruments against it — the centralized and
// distributed algorithms of internal/core, the online engine of
// internal/engine, the sweep pool of internal/runner, and the
// packet/protocol simulators of internal/mac and internal/netsim —
// and the assocd daemon and experiments CLI expose it outward
// (/metrics, /v1/trace/export, -trace FILE).
//
// Design constraints, in order:
//
//  1. Safe: every instrument is lock-free on the write path (atomics
//     only), so metrics may be read while any number of goroutines
//     record — the assocd /metrics handler never takes the engine
//     lock.
//  2. Cheap: a counter increment is one atomic add; a histogram
//     observation is a binary search plus three atomic adds. Code
//     that may run with observability off guards trace recording
//     with obs.Active(rec), which is a nil check and an interface
//     call.
//  3. Stable: exposition preserves registration order of families
//     and of series within a family, so the wire format of the PR-2
//     assocd metrics is byte-identical (see TestGoldenAssocdExposition).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType enumerates the exposition types.
type MetricType int

// Metric types, matching the Prometheus text-format TYPE keywords.
const (
	TypeCounter MetricType = iota + 1
	TypeGauge
	TypeHistogram
)

// String implements fmt.Stringer.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("MetricType(%d)", int(t))
	}
}

// Label is one metric label pair. Labels are formatted in the order
// given at registration.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry holds metric families in registration order. All methods
// are safe for concurrent use; registering the same (name, labels)
// twice returns the same instrument, so packages may re-register
// idempotently on every run.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

type family struct {
	name, help string
	typ        MetricType
	series     []*series
	byKey      map[string]*series
}

type series struct {
	labels string   // pre-rendered `{k="v",...}` or ""
	keys   []string // label keys in registration order (for Families)
	inst   instrument
}

// instrument is anything a family can hold.
type instrument interface {
	writeProm(w io.Writer, name, labels string) error
}

// lookup finds or creates the (family, series) slot. It panics on a
// type conflict — re-registering a name with a different metric type
// is a programming error, not a runtime condition.
func (r *Registry) lookup(name, help string, typ MetricType, labels []Label, mk func() instrument) instrument {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, typ, f.typ))
	}
	if s := f.byKey[key]; s != nil {
		return s.inst
	}
	s := &series{labels: key, inst: mk()}
	for _, l := range labels {
		s.keys = append(s.keys, l.Key)
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s.inst
}

// Counter returns the counter registered under (name, labels),
// creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, TypeCounter, labels, func() instrument { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge registered under (name, labels), creating
// it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, TypeGauge, labels, func() instrument { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at
// exposition time. fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.lookup(name, help, TypeGauge, labels, func() instrument { return gaugeFunc(fn) })
}

// Histogram returns the fixed-bucket histogram registered under
// (name, labels), creating it on first use with the given bucket
// upper bounds (ascending; nil selects DefaultLatencyBounds). Bounds
// are fixed at creation; later calls ignore the argument.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.lookup(name, help, TypeHistogram, labels, func() instrument { return newHistogram(bounds) }).(*Histogram)
}

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4): families in registration order, each with one
// HELP and one TYPE line, then its series in registration order.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		r.mu.Lock()
		ss := make([]*series, len(f.series))
		copy(ss, f.series)
		r.mu.Unlock()
		for _, s := range ss {
			if err := s.inst.writeProm(w, f.name, s.labels); err != nil {
				return err
			}
		}
	}
	return nil
}

// Value returns the current value of the series (name, labels), or
// false when it is not registered. Histograms report their
// observation count. Intended for tests and summaries, not hot paths.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		return 0, false
	}
	s := f.byKey[key]
	if s == nil {
		return 0, false
	}
	switch inst := s.inst.(type) {
	case *Counter:
		return float64(inst.Value()), true
	case *Gauge:
		return inst.Value(), true
	case gaugeFunc:
		return inst(), true
	case *Histogram:
		return float64(inst.Count()), true
	}
	return 0, false
}

// FamilyInfo describes one registered family — the raw material for
// generated metric documentation and the METRICS.md drift gate.
type FamilyInfo struct {
	Name      string
	Help      string
	Type      MetricType
	LabelKeys []string // union over series, sorted; empty for unlabeled
	Series    int
}

// Families returns every registered family in registration order.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilyInfo, len(r.families))
	for i, f := range r.families {
		info := FamilyInfo{Name: f.name, Help: f.help, Type: f.typ, Series: len(f.series)}
		seen := make(map[string]bool)
		for _, s := range f.series {
			for _, k := range s.keys {
				if !seen[k] {
					seen[k] = true
					info.LabelKeys = append(info.LabelKeys, k)
				}
			}
		}
		sort.Strings(info.LabelKeys)
		out[i] = info
	}
	return out
}

// renderLabels pre-renders the label block, escaping values per the
// exposition format (backslash, quote, newline).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// --- instruments ---

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which must be non-negative; negative deltas silently
// wrap, as with any uint64 counter).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) writeProm(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, c.Value())
	return err
}

// Gauge is an atomically settable float64.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) writeProm(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %g\n", name, labels, g.Value())
	return err
}

// gaugeFunc is a gauge evaluated at exposition time.
type gaugeFunc func() float64

func (g gaugeFunc) writeProm(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %g\n", name, labels, g())
	return err
}

// Histogram is a fixed-bucket histogram in the Prometheus style. The
// write path is one binary search plus three atomic adds; exposition
// renders the cumulative bucket counts the text format requires.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; implicit +Inf after
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// DefaultLatencyBounds spans 1µs..4s in powers of four — wide enough
// for a no-op engine event and a full recompute on a large network
// alike. (Moved here from internal/engine, which now registers its
// latency histogram against this package.)
func DefaultLatencyBounds() []float64 {
	return []float64{1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4}
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram, with
// cumulative bucket counts as in the exposition format: Counts[i] is
// the number of observations <= Bounds[i], Counts[len(Bounds)] the
// +Inf bucket (== Count).
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram. Concurrent Observe calls may land
// between bucket reads; the snapshot is still internally plausible
// (cumulative counts are monotone by construction).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.bounds)+1),
	}
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Counts[i] = cum
	}
	s.Sum = h.Sum()
	s.Count = h.count.Load()
	return s
}

// Sub returns the snapshot of observations that landed between prev
// and s — the tool for "what did this run cost" deltas against a
// live histogram (loadgen diffs the daemon's latency histogram around
// a replay this way). Both snapshots must come from the same
// histogram; mismatched bounds panic rather than mis-bucket.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if len(prev.Bounds) != len(s.Bounds) {
		panic("obs: HistogramSnapshot.Sub on snapshots with different bounds")
	}
	d := HistogramSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: make([]uint64, len(s.Counts)),
		Sum:    s.Sum - prev.Sum,
		Count:  s.Count - prev.Count,
	}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return d
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucketed
// counts, Prometheus histogram_quantile style: find the bucket the
// rank lands in and interpolate linearly inside it (from 0 for the
// first bucket). Observations beyond the last finite bound clamp to
// that bound — a bucketed histogram cannot say more. Returns NaN for
// an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q < 0 || q > 1 || len(s.Bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	for i, b := range s.Bounds {
		c := float64(s.Counts[i])
		if c < rank {
			continue
		}
		lo, lc := 0.0, 0.0
		if i > 0 {
			lo, lc = s.Bounds[i-1], float64(s.Counts[i-1])
		}
		if c == lc {
			return b
		}
		return lo + (b-lo)*(rank-lc)/(c-lc)
	}
	// rank fell in the +Inf bucket.
	return s.Bounds[len(s.Bounds)-1]
}

func (h *Histogram) writeProm(w io.Writer, name, labels string) error {
	s := h.Snapshot()
	for i, b := range s.Bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, fmt.Sprintf("%g", b)), s.Counts[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, s.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
	return err
}

// bucketLabels appends the le label to a pre-rendered label block.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}
