package radio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTable1Rows(t *testing.T) {
	// Table 1 of the paper, verbatim.
	want := []RateStep{
		{54, 35}, {48, 40}, {36, 60}, {24, 85}, {18, 105}, {12, 145}, {6, 200},
	}
	got := Table1().Steps()
	if len(got) != len(want) {
		t.Fatalf("got %d steps, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRateFor(t *testing.T) {
	tbl := Table1()
	tests := []struct {
		name   string
		dist   float64
		want   Mbps
		inside bool
	}{
		{"zero distance", 0, 54, true},
		{"at 54 threshold", 35, 54, true},
		{"just past 54", 35.01, 48, true},
		{"at 48 threshold", 40, 48, true},
		{"mid 36", 50, 36, true},
		{"at 24 threshold", 85, 24, true},
		{"mid 18", 100, 18, true},
		{"mid 12", 120, 12, true},
		{"mid 6", 180, 6, true},
		{"at range edge", 200, 6, true},
		{"out of range", 200.5, 0, false},
		{"far out", 1e6, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := tbl.RateFor(tt.dist)
			if ok != tt.inside || got != tt.want {
				t.Errorf("RateFor(%v) = (%v, %v), want (%v, %v)", tt.dist, got, ok, tt.want, tt.inside)
			}
		})
	}
}

func TestRateForMonotone(t *testing.T) {
	tbl := Table1()
	f := func(a, b float64) bool {
		da, db := abs(a), abs(b)
		if da > db {
			da, db = db, da
		}
		ra, _ := tbl.RateFor(da)
		rb, _ := tbl.RateFor(db)
		return ra >= rb // closer never means slower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestTableAccessors(t *testing.T) {
	tbl := Table1()
	if tbl.Range() != 200 {
		t.Errorf("Range = %v, want 200", tbl.Range())
	}
	if tbl.BasicRate() != 6 {
		t.Errorf("BasicRate = %v, want 6", tbl.BasicRate())
	}
	rates := tbl.Rates()
	if len(rates) != 7 || rates[0] != 54 || rates[6] != 6 {
		t.Errorf("Rates = %v", rates)
	}
}

func TestNewRateTableValidation(t *testing.T) {
	tests := []struct {
		name  string
		steps []RateStep
	}{
		{"empty", nil},
		{"zero rate", []RateStep{{0, 100}}},
		{"negative rate", []RateStep{{-6, 100}}},
		{"zero threshold", []RateStep{{6, 0}}},
		{"duplicate rate", []RateStep{{6, 200}, {6, 150}}},
		{"inconsistent reach", []RateStep{{54, 100}, {6, 50}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewRateTable(tt.steps); err == nil {
				t.Errorf("NewRateTable(%v) succeeded, want error", tt.steps)
			}
		})
	}
}

func TestNewRateTableUnsortedInput(t *testing.T) {
	tbl, err := NewRateTable([]RateStep{{6, 200}, {54, 35}, {24, 85}})
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := tbl.RateFor(50); r != 24 {
		t.Errorf("RateFor(50) = %v, want 24", r)
	}
}

func TestScaled(t *testing.T) {
	tbl := Table1()
	half, err := tbl.Scaled(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if half.Range() != 100 {
		t.Errorf("scaled range = %v, want 100", half.Range())
	}
	if r, ok := half.RateFor(17.5); !ok || r != 54 {
		t.Errorf("RateFor(17.5) on half table = %v, want 54", r)
	}
	if _, ok := half.RateFor(150); ok {
		t.Error("150m should be out of range on half table")
	}
	if _, err := tbl.Scaled(0); err == nil {
		t.Error("Scaled(0) should error")
	}
	if _, err := tbl.Scaled(-1); err == nil {
		t.Error("Scaled(-1) should error")
	}
	// Original table must be untouched.
	if tbl.Range() != 200 {
		t.Error("Scaled mutated the receiver")
	}
}

func TestScaledPreservesRateSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := Table1()
	for i := 0; i < 50; i++ {
		f := 0.1 + rng.Float64()*2
		s, err := tbl.Scaled(f)
		if err != nil {
			t.Fatal(err)
		}
		a, b := tbl.Rates(), s.Rates()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("scaling changed the rate set: %v vs %v", a, b)
			}
		}
	}
}
