package geom

import (
	"fmt"
	"math"
	"sort"
)

// Grid is a uniform spatial index over a fixed set of points (the
// WLAN model indexes AP positions with it). The plane is cut into
// square cells of side Cell; a query point's 3x3 cell neighborhood is
// a superset of every indexed point within Cell meters of it, which
// turns "which APs can reach this user" from an O(APs) scan into an
// O(1) local lookup. That locality is what lets the sparse network
// core build million-user scenarios without ever touching an
// APs x users matrix.
//
// Invariants (DESIGN.md "Sparse spatial core"):
//
//   - Cell is at least the query radius (the rate table's maximum
//     range), so for any point p, every indexed point q with
//     Dist(p, q) <= Cell lies in the 3x3 cell block around p's
//     (clamped) cell. This holds even for p outside the indexed
//     bounding box: clamping moves p's cell by strictly less than the
//     distance p is out of bounds, so the block still covers the
//     in-range band.
//   - Near returns candidate ids in ascending order, so callers that
//     filter by true distance produce sorted adjacency directly.
//
// A Grid is immutable; the indexed points never move (APs are fixed —
// moving users query the grid, they are not in it).
type Grid struct {
	cell       float64
	cols, rows int
	minX, minY float64
	// CSR bucket layout: ids[start[c]:start[c+1]] are the point ids in
	// cell c = cy*cols + cx, ascending. A flat layout costs one slice
	// header total instead of one per cell.
	start []int
	ids   []int
}

// NewGrid indexes pts with the given cell side in meters. The cell
// must be positive and at least any radius later queried via Near;
// callers pass their maximum radio range.
func NewGrid(pts []Point, cell float64) (*Grid, error) {
	if cell <= 0 || math.IsNaN(cell) || math.IsInf(cell, 0) {
		return nil, fmt.Errorf("geom: grid cell must be positive and finite, got %v", cell)
	}
	g := &Grid{cell: cell, cols: 1, rows: 1}
	if len(pts) == 0 {
		g.start = []int{0, 0}
		return g, nil
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("geom: grid point %v is not finite", p)
		}
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	g.minX, g.minY = minX, minY
	// A sparse point set spread over a huge area would allocate far
	// more cells than points. Doubling the cell keeps the superset
	// invariant (a bigger cell can only widen the 3x3 block) while
	// bounding the index at O(points) memory.
	maxCells := float64(4*len(pts) + 64)
	for (math.Floor((maxX-minX)/g.cell)+1)*(math.Floor((maxY-minY)/g.cell)+1) > maxCells {
		g.cell *= 2
	}
	g.cols = int((maxX-minX)/g.cell) + 1
	g.rows = int((maxY-minY)/g.cell) + 1

	// Counting sort into the CSR layout: count, prefix-sum, fill.
	// Filling in point-id order keeps each bucket ascending.
	g.start = make([]int, g.cols*g.rows+1)
	cellOf := make([]int, len(pts))
	for i, p := range pts {
		cx, cy := g.cellCoords(p)
		c := cy*g.cols + cx
		cellOf[i] = c
		g.start[c+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.ids = make([]int, len(pts))
	next := make([]int, g.cols*g.rows)
	copy(next, g.start[:len(g.start)-1])
	for i := range pts {
		c := cellOf[i]
		g.ids[next[c]] = i
		next[c]++
	}
	return g, nil
}

// cellCoords maps p to its (clamped) cell coordinates.
func (g *Grid) cellCoords(p Point) (cx, cy int) {
	cx = int((p.X - g.minX) / g.cell)
	cy = int((p.Y - g.minY) / g.cell)
	// Clamp: query points may fall outside the indexed bounding box
	// (a user can stand beyond the outermost AP), and float division
	// of the maximum coordinate can land exactly on cols/rows.
	cx = clampInt(cx, 0, g.cols-1)
	cy = clampInt(cy, 0, g.rows-1)
	return cx, cy
}

// Near appends to buf the ids of all indexed points in the 3x3 cell
// block around p and returns the result in ascending order. The block
// is a superset of every indexed point within Cell meters of p;
// callers filter by true distance. buf lets hot paths reuse one
// allocation across queries (pass buf[:0]).
func (g *Grid) Near(p Point, buf []int) []int {
	cx, cy := g.cellCoords(p)
	for dy := -1; dy <= 1; dy++ {
		y := cy + dy
		if y < 0 || y >= g.rows {
			continue
		}
		for dx := -1; dx <= 1; dx++ {
			x := cx + dx
			if x < 0 || x >= g.cols {
				continue
			}
			c := y*g.cols + x
			buf = append(buf, g.ids[g.start[c]:g.start[c+1]]...)
		}
	}
	// Buckets are ascending but the 3x3 concatenation is not; the
	// candidate count is O(points per block), typically tens.
	sort.Ints(buf)
	return buf
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
