package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestNewGridRejectsBadCell(t *testing.T) {
	pts := []Point{{X: 1, Y: 1}}
	for _, cell := range []float64{0, -5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewGrid(pts, cell); err == nil {
			t.Errorf("NewGrid(cell=%v) accepted an invalid cell", cell)
		}
	}
}

func TestNewGridRejectsNonFinitePoints(t *testing.T) {
	for _, p := range []Point{
		{X: math.NaN(), Y: 0},
		{X: 0, Y: math.NaN()},
		{X: math.Inf(1), Y: 0},
		{X: 0, Y: math.Inf(-1)},
	} {
		if _, err := NewGrid([]Point{{X: 1, Y: 1}, p}, 10); err == nil {
			t.Errorf("NewGrid accepted non-finite point %v", p)
		}
	}
}

func TestGridEmpty(t *testing.T) {
	g, err := NewGrid(nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Near(Point{X: 123, Y: -456}, nil); len(got) != 0 {
		t.Fatalf("Near on empty grid = %v, want empty", got)
	}
	if cells := g.cols * g.rows; cells != 1 {
		t.Fatalf("%d cells, want 1", cells)
	}
}

func TestGridSinglePoint(t *testing.T) {
	g, err := NewGrid([]Point{{X: 7, Y: 9}}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Near(Point{X: 7, Y: 9}, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Near = %v, want [0]", got)
	}
}

// TestGridFarQueryPrunes checks that a distant query point does not
// drag in points far outside its 3x3 block (clamping only widens the
// block near the bounding-box edge, it never spans the whole grid).
func TestGridFarQueryPrunes(t *testing.T) {
	g, err := NewGrid([]Point{{X: 0, Y: 0}, {X: 250, Y: 0}}, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Clamps to the rightmost cell: only the nearby point 1 is in the
	// block; point 0 sits ten cells away.
	if got := g.Near(Point{X: 1000, Y: 0}, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Near far right = %v, want [1]", got)
	}
}

// bruteNear is the ground truth: every indexed point within radius of p.
func bruteNear(pts []Point, p Point, radius float64) []int {
	var ids []int
	for i, q := range pts {
		if p.Dist(q) <= radius {
			ids = append(ids, i)
		}
	}
	return ids
}

// TestGridNearSuperset is the core invariant: for any query point —
// inside the indexed bounding box, on its edge, or far outside — Near
// returns a sorted id list that contains every indexed point within
// Cell meters.
func TestGridNearSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	area := Rect{Width: 1200, Height: 1000}
	for trial := 0; trial < 20; trial++ {
		nPts := 1 + rng.Intn(120)
		cell := 40 + rng.Float64()*250
		pts := UniformPoints(rng, nPts, area)
		g, err := NewGrid(pts, cell)
		if err != nil {
			t.Fatal(err)
		}
		if g.cell < cell {
			t.Fatalf("cell %v shrank below requested %v", g.cell, cell)
		}
		buf := make([]int, 0, nPts)
		for q := 0; q < 50; q++ {
			// Mostly in-area queries plus a band outside the bounding
			// box (users may stand beyond the outermost AP).
			p := Point{
				X: -300 + rng.Float64()*(area.Width+600),
				Y: -300 + rng.Float64()*(area.Height+600),
			}
			buf = g.Near(p, buf[:0])
			if !sort.IntsAreSorted(buf) {
				t.Fatalf("Near(%v) not ascending: %v", p, buf)
			}
			got := make(map[int]bool, len(buf))
			for _, id := range buf {
				if id < 0 || id >= nPts {
					t.Fatalf("Near(%v) returned out-of-range id %d", p, id)
				}
				if got[id] {
					t.Fatalf("Near(%v) returned duplicate id %d", p, id)
				}
				got[id] = true
			}
			for _, id := range bruteNear(pts, p, cell) {
				if !got[id] {
					t.Fatalf("Near(%v) missed point %d (%v) within radius %v",
						p, id, pts[id], cell)
				}
			}
		}
	}
}

// TestGridCellDoubling pins the memory bound: a sparse point set over
// a huge area must not allocate cells proportional to the area.
func TestGridCellDoubling(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 1e6, Y: 1e6}, {X: 500, Y: 2e5}}
	g, err := NewGrid(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cells, max := g.cols*g.rows, 4*len(pts)+64; cells > max {
		t.Fatalf("%d cells exceeds O(points) bound %d", cells, max)
	}
	if g.cell < 10 {
		t.Fatalf("doubling shrank the cell: %v", g.cell)
	}
	// The superset invariant must survive the doubling.
	for i, p := range pts {
		found := false
		for _, id := range g.Near(p, nil) {
			if id == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("point %d not found near itself after doubling", i)
		}
	}
}

// TestGridCoincidentPoints covers the degenerate zero-area bounding box.
func TestGridCoincidentPoints(t *testing.T) {
	pts := []Point{{X: 5, Y: 5}, {X: 5, Y: 5}, {X: 5, Y: 5}}
	g, err := NewGrid(pts, 100)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Near(Point{X: 5, Y: 5}, nil)
	if want := []int{0, 1, 2}; !sort.IntsAreSorted(got) || len(got) != len(want) {
		t.Fatalf("Near = %v, want %v", got, want)
	}
}

func TestGridBufReuse(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	g, err := NewGrid(pts, 50)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 8)
	first := g.Near(Point{}, buf)
	second := g.Near(Point{}, first[:0])
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("reused buffer changed results: %v then %v", first, second)
	}
}
