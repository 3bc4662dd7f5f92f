package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p := Point{math.Mod(ax, 1e6), math.Mod(ay, 1e6)}
		q := Point{math.Mod(bx, 1e6), math.Mod(by, 1e6)}
		return math.Abs(p.Dist(q)-q.Dist(p)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistSqConsistent(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Keep values bounded to avoid overflow-induced Inf mismatches.
		p := Point{math.Mod(ax, 1e6), math.Mod(ay, 1e6)}
		q := Point{math.Mod(bx, 1e6), math.Mod(by, 1e6)}
		d := p.Dist(q)
		return math.Abs(d*d-p.DistSq(q)) <= 1e-6*(1+p.DistSq(q))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a := Point{rng.Float64() * 100, rng.Float64() * 100}
		b := Point{rng.Float64() * 100, rng.Float64() * 100}
		c := Point{rng.Float64() * 100, rng.Float64() * 100}
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestRect(t *testing.T) {
	r := Square(600)
	if r.Area() != 360000 {
		t.Errorf("Area = %v, want 360000", r.Area())
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{600, 600}) {
		t.Error("border points should be contained")
	}
	if r.Contains(Point{-1, 0}) || r.Contains(Point{0, 601}) {
		t.Error("outside points should not be contained")
	}
}

func TestUniformPointsInside(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := Rect{Width: 1200, Height: 1000}
	pts := UniformPoints(rng, 500, r)
	if len(pts) != 500 {
		t.Fatalf("got %d points, want 500", len(pts))
	}
	for i, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("point %d = %v outside %v", i, p, r)
		}
	}
}

func TestUniformPointsDeterministic(t *testing.T) {
	r := Square(100)
	a := UniformPoints(rand.New(rand.NewSource(1)), 10, r)
	b := UniformPoints(rand.New(rand.NewSource(1)), 10, r)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different points at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestUniformPointsRoughlyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := Square(100)
	pts := UniformPoints(rng, 10000, r)
	// Count points in each quadrant; each should hold about 1/4.
	var q [4]int
	for _, p := range pts {
		i := 0
		if p.X > 50 {
			i |= 1
		}
		if p.Y > 50 {
			i |= 2
		}
		q[i]++
	}
	for i, n := range q {
		if n < 2200 || n > 2800 {
			t.Errorf("quadrant %d has %d points, want ~2500", i, n)
		}
	}
}

func TestGridPoints(t *testing.T) {
	tests := []struct {
		name string
		n    int
		r    Rect
	}{
		{"zero", 0, Square(100)},
		{"one", 1, Square(100)},
		{"perfect square", 16, Square(100)},
		{"non-square count", 7, Square(100)},
		{"wide area", 10, Rect{Width: 1000, Height: 100}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pts := GridPoints(tt.n, tt.r)
			if len(pts) != tt.n {
				t.Fatalf("got %d points, want %d", len(pts), tt.n)
			}
			seen := make(map[Point]bool, tt.n)
			for _, p := range pts {
				if !tt.r.Contains(p) {
					t.Fatalf("point %v outside %v", p, tt.r)
				}
				if seen[p] {
					t.Fatalf("duplicate grid point %v", p)
				}
				seen[p] = true
			}
		})
	}
}

func TestClusteredPointsInside(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := Square(500)
	pts := ClusteredPoints(rng, 300, 5, 30, r)
	if len(pts) != 300 {
		t.Fatalf("got %d points, want 300", len(pts))
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("clustered point %v outside area", p)
		}
	}
}

func TestClusteredPointsClusterCountFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := ClusteredPoints(rng, 10, 0, 10, Square(100))
	if len(pts) != 10 {
		t.Fatalf("got %d points, want 10", len(pts))
	}
}

func TestClamp(t *testing.T) {
	if clamp(-1, 0, 10) != 0 || clamp(11, 0, 10) != 10 || clamp(5, 0, 10) != 5 {
		t.Error("clamp misbehaves")
	}
}
