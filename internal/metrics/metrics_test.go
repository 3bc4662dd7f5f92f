package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCollect(t *testing.T) {
	tests := []struct {
		name string
		vals []float64
		want Stat
	}{
		{"empty", nil, Stat{}},
		{"single", []float64{3}, Stat{Avg: 3, Min: 3, Max: 3, N: 1}},
		{"pair", []float64{1, 3}, Stat{Avg: 2, Min: 1, Max: 3, StdDev: math.Sqrt(2), N: 2}},
		{"negative", []float64{-2, 2}, Stat{Avg: 0, Min: -2, Max: 2, StdDev: math.Sqrt(8), N: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Collect(tt.vals)
			if math.Abs(got.Avg-tt.want.Avg) > 1e-12 ||
				got.Min != tt.want.Min || got.Max != tt.want.Max ||
				math.Abs(got.StdDev-tt.want.StdDev) > 1e-12 || got.N != tt.want.N {
				t.Errorf("Collect(%v) = %+v, want %+v", tt.vals, got, tt.want)
			}
		})
	}
}

func TestCollectProperties(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, math.Mod(v, 1e6))
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := Collect(vals)
		return s.Min <= s.Avg+1e-9 && s.Avg <= s.Max+1e-9 && s.StdDev >= 0 && s.N == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func buildFigure() *Figure {
	f := &Figure{ID: "fig9a", Title: "Total load vs users", XLabel: "users", YLabel: "total load", X: []float64{100, 200}}
	f.AddPoint("SSA", Stat{Avg: 10, Min: 9, Max: 11, StdDev: 1, N: 3})
	f.AddPoint("SSA", Stat{Avg: 20, Min: 18, Max: 22, StdDev: 2, N: 3})
	f.AddPoint("MLA", Stat{Avg: 7, Min: 6, Max: 8, StdDev: 0.5, N: 3})
	f.AddPoint("MLA", Stat{Avg: 14, Min: 13, Max: 15, StdDev: 0.75, N: 3})
	return f
}

func TestFigureAddAndValidate(t *testing.T) {
	f := buildFigure()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(f.Series))
	}
	f.AddPoint("MLA", Stat{Avg: 1})
	if err := f.Validate(); err == nil {
		t.Error("ragged series should fail validation")
	}
}

func TestFigureTable(t *testing.T) {
	tbl := buildFigure().Table()
	for _, want := range []string{"fig9a", "users", "SSA", "MLA", "10.0000", "14.0000"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	// The ±stddev spread is part of every cell (pinned format).
	for _, want := range []string{"±1.0000", "±2.0000", "±0.5000", "±0.7500"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing stddev %q:\n%s", want, tbl)
		}
	}
}

func TestFigureTablePinnedCell(t *testing.T) {
	// One full row, exact: avg ±stddev [min, max] per series.
	tbl := buildFigure().Table()
	want := "100          |  10.0000 ±1.0000  [ 9.0000, 11.0000] |   7.0000 ±0.5000  [ 6.0000,  8.0000]"
	var found bool
	for _, line := range strings.Split(tbl, "\n") {
		if line == want {
			found = true
		}
	}
	if !found {
		t.Errorf("pinned row %q not found in:\n%s", want, tbl)
	}
}

func TestFigureCSV(t *testing.T) {
	csv := buildFigure().CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want 3:\n%s", len(lines), csv)
	}
	if lines[0] != "users,SSA_avg,SSA_min,SSA_max,SSA_stddev,MLA_avg,MLA_min,MLA_max,MLA_stddev" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "100,10,9,11,1,7,6,8,0.5" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "200,20,18,22,2,14,13,15,0.75" {
		t.Errorf("row 2 = %q", lines[2])
	}
}

func TestCSVMissingCells(t *testing.T) {
	// A series missing a point still emits four empty cells so the
	// column grid stays aligned.
	f := &Figure{XLabel: "x", X: []float64{1, 2}}
	f.AddPoint("a", Stat{Avg: 1, Min: 1, Max: 1})
	lines := strings.Split(strings.TrimSpace(f.CSV()), "\n")
	if lines[2] != "2,,,," {
		t.Errorf("missing-cell row = %q, want %q", lines[2], "2,,,,")
	}
}

func TestCSVEscaping(t *testing.T) {
	f := &Figure{XLabel: `x,with"comma`, X: []float64{1}}
	f.AddPoint("a,b", Stat{})
	csv := f.CSV()
	if !strings.Contains(csv, `"x,with""comma"`) || !strings.Contains(csv, `"a,b_avg"`) || !strings.Contains(csv, `"a,b_stddev"`) {
		t.Errorf("escaping wrong: %q", csv)
	}
}

func TestImprovement(t *testing.T) {
	f := buildFigure()
	// MLA is 30% below SSA at both points.
	if got := f.Improvement("SSA", "MLA", 0); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("improvement = %v, want 0.3", got)
	}
	// SSA is 3/7 above MLA: a negative improvement.
	if got := f.Improvement("MLA", "SSA", 0); math.Abs(got+3.0/7.0) > 1e-12 {
		t.Errorf("improvement = %v, want -3/7", got)
	}
	if f.Improvement("missing", "MLA", 0) != 0 || f.Improvement("SSA", "MLA", 99) != 0 {
		t.Error("missing series/index should yield 0")
	}
	zero := &Figure{X: []float64{1}}
	zero.AddPoint("a", Stat{Avg: 0})
	zero.AddPoint("b", Stat{Avg: 5})
	if zero.Improvement("a", "b", 0) != 0 {
		t.Error("zero baseline should yield 0")
	}
}

func TestLabelsAndSort(t *testing.T) {
	f := &Figure{X: []float64{1}}
	f.AddPoint("zeta", Stat{})
	f.AddPoint("alpha", Stat{})
	labels := f.Labels()
	if len(labels) != 2 || labels[0] != "zeta" || labels[1] != "alpha" {
		t.Errorf("labels = %v", labels)
	}
}

func TestCollectMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 10
		}
		s := Collect(vals)
		// Naive recomputation.
		min, max, sum := vals[0], vals[0], 0.0
		for _, v := range vals {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
		}
		if s.Min != min || s.Max != max || math.Abs(s.Avg-sum/float64(n)) > 1e-9 {
			t.Fatalf("trial %d: stats mismatch", trial)
		}
	}
}
