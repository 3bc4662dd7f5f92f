package radio

import (
	"math"
	"testing"
)

func TestPowerLevels(t *testing.T) {
	levels, err := PowerLevels(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 4 {
		t.Fatalf("got %d levels, want 4", len(levels))
	}
	wantOff := []float64{0, 3, 6, 9}
	for i, l := range levels {
		if l.Index != i+1 {
			t.Errorf("level %d has index %d, want %d", i, l.Index, i+1)
		}
		if math.Abs(l.OffsetDB-wantOff[i]) > 1e-9 {
			t.Errorf("level %d offset = %v, want %v", i, l.OffsetDB, wantOff[i])
		}
	}
}

func TestPowerLevelsSingle(t *testing.T) {
	levels, err := PowerLevels(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 1 || levels[0].OffsetDB != 0 || levels[0].Index != 1 {
		t.Errorf("single level = %+v, want {1 0}", levels[0])
	}
}

func TestPowerLevelsErrors(t *testing.T) {
	if _, err := PowerLevels(0, 9); err == nil {
		t.Error("PowerLevels(0, _) should error")
	}
	if _, err := PowerLevels(3, -1); err == nil {
		t.Error("negative span should error")
	}
}

func TestRangeFactor(t *testing.T) {
	// Full power: no shrink.
	if f := RangeFactor(0, 3); f != 1 {
		t.Errorf("RangeFactor(0) = %v, want 1", f)
	}
	// 30 dB down with exponent 3 shrinks range 10x.
	if f := RangeFactor(30, 3); math.Abs(f-0.1) > 1e-12 {
		t.Errorf("RangeFactor(30,3) = %v, want 0.1", f)
	}
	// Bad exponent falls back to 3.
	if f := RangeFactor(30, 0); math.Abs(f-0.1) > 1e-12 {
		t.Errorf("RangeFactor with exponent 0 = %v, want 0.1", f)
	}
	// Monotone: more offset, smaller factor.
	prev := 1.1
	for off := 0.0; off <= 20; off += 2.5 {
		f := RangeFactor(off, 3)
		if f >= prev {
			t.Fatalf("RangeFactor not decreasing at offset %v", off)
		}
		prev = f
	}
}
