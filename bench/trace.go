package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval around a call into a layer. Times are
// nanoseconds since the tracer started; Parent is the enclosing
// span's ID (-1 at the top). Count is how many operations the
// interval covers when one span stands for a loop of calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is
// tracing off: every method is a no-op, so the measured code is the
// same with and without it. Not safe for concurrent use; spans timed
// on another goroutine are added afterwards with add.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) { t.endN(id, 0) }

func (t *tracer) endN(id, count int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].Count = count
	t.open = t.open[:len(t.open)-1]
}

// add records a finished interval under the innermost open span.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// selfSeconds totals, per span name, each span's duration minus the
// part its direct children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e9
	}
	return self
}

// overhead estimates the share of the named span's duration that
// recording the spans under it cost: their number times the measured
// price of one begin/end pair on this host.
func (t *tracer) overhead(name string) float64 {
	root := -1
	for _, s := range t.spans {
		if s.Name == name {
			root = s.ID
		}
	}
	if root < 0 || t.spans[root].End <= t.spans[root].Start {
		return 0
	}
	under := make([]bool, len(t.spans))
	under[root] = true
	n := 0
	for _, s := range t.spans[root+1:] { // a parent always precedes its children
		if s.Parent >= 0 && under[s.Parent] {
			under[s.ID] = true
			n++
		}
	}
	const pairs = 1 << 16
	probe := newTracer("")
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		probe.end(probe.begin("probe"))
	}
	perSpan := float64(time.Since(t0)) / pairs
	return float64(n) * perSpan / float64(t.spans[root].End-t.spans[root].Start)
}

// write stores the spans and their self times as
// <dir>/trace-<workload>.json.
func (t *tracer) write(dir string, seed int64) error {
	doc := struct {
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		SelfSeconds map[string]float64 `json:"self_seconds"`
		Spans       []span             `json:"spans"`
	}{t.workload, seed, t.selfSeconds(), t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), b, 0o644)
}
