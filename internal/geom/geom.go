// Package geom provides the 2-D geometry primitives used by the WLAN
// model: points, rectangles, distances, and deterministic random
// placement of nodes inside a deployment area.
//
// All randomized helpers take an explicit *rand.Rand so that every
// scenario in the repository is reproducible from a seed.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in meters within the deployment area.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Dist returns the Euclidean distance in meters between p and q.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Hypot(dx, dy)
}

// DistSq returns the squared Euclidean distance between p and q. It is
// cheaper than Dist and sufficient for comparisons.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y)
}

// Rect is an axis-aligned rectangle with the origin at (0, 0).
type Rect struct {
	Width  float64 `json:"width"`
	Height float64 `json:"height"`
}

// Square returns a square deployment area with the given side in meters.
func Square(side float64) Rect {
	return Rect{Width: side, Height: side}
}

// Area returns the rectangle area in square meters.
func (r Rect) Area() float64 {
	return r.Width * r.Height
}

// Contains reports whether p lies inside r (inclusive of the border).
func (r Rect) Contains(p Point) bool {
	return p.X >= 0 && p.X <= r.Width && p.Y >= 0 && p.Y <= r.Height
}
