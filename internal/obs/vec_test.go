package obs

import (
	"strings"
	"testing"
)

func TestGaugeVecAndHistogramVec(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("vec_stage_seconds", "Stage latency.", []float64{0.1, 1}, "stage", []string{"apply", "reduce"})
	h.With("apply").Observe(0.05)
	h.At(1).Observe(0.5)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`vec_stage_seconds_bucket{stage="apply",le="0.1"} 1`,
		`vec_stage_seconds_bucket{stage="reduce",le="1"} 1`,
		`vec_stage_seconds_sum{stage="apply"} 0.05`,
		`vec_stage_seconds_count{stage="reduce"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintProm(strings.NewReader(out)); err != nil {
		t.Fatalf("vec exposition fails lint: %v", err)
	}
	// Idempotent re-registration returns the same series.
	h2 := r.HistogramVec("vec_stage_seconds", "Stage latency.", []float64{0.1, 1}, "stage", []string{"apply", "reduce"})
	if h2.With("apply") != h.With("apply") {
		t.Fatal("re-registration created a new series")
	}
	// Out-of-set values panic: the label set is bounded.
	defer func() {
		if recover() == nil {
			t.Fatal("With on unknown value did not panic")
		}
	}()
	h.With("queue")
}

func TestLocalHistogramFlush(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lh_seconds", "H.", []float64{1, 10})
	l := h.Local()
	l.Observe(0.5)
	l.Observe(5)
	l.Observe(100)
	if h.Count() != 0 {
		t.Fatal("staged observations leaked before Flush")
	}
	l.Flush()
	if h.Count() != 3 || h.Sum() != 105.5 {
		t.Fatalf("Count=%d Sum=%g, want 3, 105.5", h.Count(), h.Sum())
	}
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.Counts[1] != 2 || s.Counts[2] != 3 {
		t.Fatalf("cumulative counts %v, want [1 2 3]", s.Counts)
	}
	l.Flush() // idempotent when empty
	if h.Count() != 3 {
		t.Fatalf("empty Flush changed count to %d", h.Count())
	}
	l.Observe(2)
	l.Flush()
	if h.Count() != 4 || h.Sum() != 107.5 {
		t.Fatalf("after second flush: Count=%d Sum=%g", h.Count(), h.Sum())
	}
}

func TestRegistryFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total", "Plain.")
	r.Counter("labeled_total", "Labeled.", L("kind", "a"))
	r.Counter("labeled_total", "Labeled.", L("kind", "b"))
	r.HistogramVec("h_seconds", "H.", nil, "stage", []string{"x"})
	fams := r.Families()
	if len(fams) != 3 {
		t.Fatalf("got %d families, want 3", len(fams))
	}
	if f := fams[0]; f.Name != "plain_total" || f.Type != TypeCounter || len(f.LabelKeys) != 0 || f.Series != 1 {
		t.Fatalf("plain family mangled: %+v", f)
	}
	if f := fams[1]; f.Name != "labeled_total" || strings.Join(f.LabelKeys, ",") != "kind" || f.Series != 2 {
		t.Fatalf("labeled family mangled: %+v", f)
	}
	if f := fams[2]; f.Type != TypeHistogram || strings.Join(f.LabelKeys, ",") != "stage" {
		t.Fatalf("histogram family mangled: %+v", f)
	}
}

func TestLintPromLabelRules(t *testing.T) {
	bad := []struct{ name, text string }{
		{"duplicate key in block", `x{k="a",k="b"} 1` + "\n"},
		{"le outside bucket", `x{le="1"} 1` + "\n"},
		{"inconsistent family keys", `x{k="a"} 1` + "\nx 2\n"},
		{"inconsistent keys across series", `x{k="a"} 1` + "\n" + `x{j="b"} 2` + "\n"},
	}
	for _, c := range bad {
		if err := LintProm(strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: lint accepted %q", c.name, c.text)
		}
	}
	// Histogram buckets carry le on top of the family keys; that is
	// consistent, not a violation.
	good := "# TYPE h histogram\n" +
		`h_bucket{stage="a",le="1"} 1` + "\n" +
		`h_bucket{stage="a",le="+Inf"} 1` + "\n" +
		`h_sum{stage="a"} 0.5` + "\n" +
		`h_count{stage="a"} 1` + "\n"
	if err := LintProm(strings.NewReader(good)); err != nil {
		t.Fatalf("lint rejected labeled histogram: %v", err)
	}
}
