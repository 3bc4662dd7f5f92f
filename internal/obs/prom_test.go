package obs

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseProm(t *testing.T) {
	text := "# HELP x_total Things, counted.\n" +
		"# TYPE x_total counter\n" +
		"# a free comment\n" +
		"\n" +
		`x_total{k="a\"b\\c\nd",j="2"} 3 1700000000` + "\n" +
		"y +Inf\n"
	lines, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := []PromLine{
		{No: 1, Kind: "HELP", Name: "x_total", Text: "Things, counted."},
		{No: 2, Kind: "TYPE", Name: "x_total", Text: "counter"},
		{No: 5, Name: "x_total", Labels: []PromLabel{{"k", "a\"b\\c\nd"}, {"j", "2"}}, Value: 3},
		{No: 6, Name: "y", Value: math.Inf(1)},
	}
	if !reflect.DeepEqual(lines, want) {
		t.Fatalf("parsed\n%+v\nwant\n%+v", lines, want)
	}
	if v, ok := lines[2].Label("j"); !ok || v != "2" {
		t.Errorf(`Label("j") = %q, %v`, v, ok)
	}
	if _, ok := lines[2].Label("le"); ok {
		t.Error(`Label("le") found a label the sample does not carry`)
	}
	if _, err := ParseProm(strings.NewReader("ok 1\nx{k=\"a\\q\"} 1\n")); err == nil || !strings.HasPrefix(err.Error(), "line 2:") {
		t.Errorf("bad escape on line 2: err = %v", err)
	}
}

// latencyRegistry holds the daemon's two histogram families with
// their real names, bounds and stage label values.
func latencyRegistry() (*Registry, *Histogram, *HistogramVec) {
	r := NewRegistry()
	lat := r.Histogram("assocd_event_latency_seconds", "Wall-clock time to apply one event.", DefaultLatencyBounds())
	stages := r.HistogramVec("assocd_stage_seconds", "Pipeline stage cost.", DefaultLatencyBounds(),
		"stage", []string{"queue_wait", "apply", "reduce"})
	return r, lat, stages
}

// readHistograms renders r and reads family name back, keyed by key.
func readHistograms(t *testing.T, r *Registry, name, key string) (map[string]HistogramSnapshot, []string) {
	t.Helper()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	lines, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	snaps, order, err := PromHistograms(lines, name, key)
	if err != nil {
		t.Fatal(err)
	}
	return snaps, order
}

// TestPromHistogramsUnlabeled pins the exposition → HistogramSnapshot
// round trip against the real exposition writer, and the diff path on
// top of it.
func TestPromHistogramsUnlabeled(t *testing.T) {
	r, lat, _ := latencyRegistry()
	lat.Observe(0.0001)
	lat.Observe(0.0001)
	lat.Observe(2.0)

	snaps, order := readHistograms(t, r, "assocd_event_latency_seconds", "")
	if fmt.Sprint(order) != "[]" || len(snaps) != 1 {
		t.Fatalf("order = %q, %d snapshots; want the one unlabeled series", order, len(snaps))
	}
	if got, want := snaps[""], lat.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
	before := snaps[""]
	lat.Observe(0.0001)
	after, _ := readHistograms(t, r, "assocd_event_latency_seconds", "")
	if delta := after[""].Sub(before); delta.Count != 1 {
		t.Errorf("delta count = %d, want 1", delta.Count)
	}
}

// TestPromHistogramsByLabel pins the labeled read: one snapshot per
// label value, in exposition order, and the diff path.
func TestPromHistogramsByLabel(t *testing.T) {
	r, _, stages := latencyRegistry()
	stages.With("apply").Observe(0.0001)
	stages.With("apply").Observe(2.0)
	stages.With("reduce").Observe(0.001)

	snaps, order := readHistograms(t, r, "assocd_stage_seconds", "stage")
	wantOrder := []string{"queue_wait", "apply", "reduce"}
	if fmt.Sprint(order) != fmt.Sprint(wantOrder) {
		t.Fatalf("label order = %v, want %v", order, wantOrder)
	}
	for _, stg := range wantOrder {
		if got, want := snaps[stg], stages.With(stg).Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s snapshot = %+v, want %+v", stg, got, want)
		}
	}
	before := snaps["apply"]
	stages.With("apply").Observe(0.0001)
	after, _ := readHistograms(t, r, "assocd_stage_seconds", "stage")
	if delta := after["apply"].Sub(before); delta.Count != 1 {
		t.Errorf("apply delta count = %d, want 1", delta.Count)
	}
}

// TestPromHistogramsAbsent: a family the exposition lacks reads as an
// empty map, whose missing entry is the zero snapshot.
func TestPromHistogramsAbsent(t *testing.T) {
	r := NewRegistry()
	r.Counter("other_total", "Other.").Inc()
	snaps, order := readHistograms(t, r, "assocd_stage_seconds", "stage")
	if len(snaps) != 0 || len(order) != 0 {
		t.Fatalf("absent family read as %v %v", snaps, order)
	}
	if s := snaps[""]; s.Count != 0 || len(s.Bounds) != 0 {
		t.Fatalf("missing entry = %+v, want the zero snapshot", s)
	}
	for _, text := range []string{
		"h_bucket 1\n",                // no le
		`h_bucket{le="x"} 1` + "\n",   // le not a float
		`h_bucket{le="1"} 1.5` + "\n", // not a count
		"h_count -1\n",
	} {
		lines, err := ParseProm(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := PromHistograms(lines, "h", ""); err == nil {
			t.Errorf("%q read without error", text)
		}
	}
}

// FuzzParseProm: the parser never panics, and every exposition
// LintProm accepts parses to exactly one sample per non-comment line.
func FuzzParseProm(f *testing.F) {
	r, lat, stages := latencyRegistry()
	lat.Observe(0.5)
	stages.With("apply").Observe(1e-5)
	r.Counter("assocd_events_total", "Events.", L("kind", "join")).Add(3)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(b.String())
	f.Add("# some free comment\n# TYPE g gauge\ng{x=\"0\"} +Inf\ng{x=\"1\"} NaN\n")
	f.Add(`x{k="a\"b\\c\nd"} 1 17` + "\r\n\n#\nx_2 -3e-7\n")
	f.Add(`x{k="a",k="b"} 1` + "\n")
	f.Fuzz(func(t *testing.T, text string) {
		lines, perr := ParseProm(strings.NewReader(text))
		if LintProm(strings.NewReader(text)) != nil {
			return
		}
		if perr != nil {
			t.Fatalf("lint accepted what the parser rejects: %v", perr)
		}
		want := 0
		for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
			line = strings.TrimSuffix(line, "\r") // as bufio.ScanLines does
			if line != "" && !strings.HasPrefix(line, "#") {
				want++
			}
		}
		got := 0
		for _, l := range lines {
			if l.Kind == "" {
				got++
			}
		}
		if got != want {
			t.Fatalf("%d samples parsed from %d sample lines in %q", got, want, text)
		}
	})
}
