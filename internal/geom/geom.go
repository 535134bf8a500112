// Package geom provides the planar geometry primitives used by the topology
// generators and by the interference-diameter analysis of the SCREAM paper
// (square-grid augmentation, lattice paths, region diameters).
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the two-dimensional Euclidean plane. Coordinates are
// in meters unless a caller documents otherwise.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Add returns the vector sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{float64(p.X * k), float64(p.Y * k)} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Rect is an axis-aligned closed rectangle [MinX, MaxX] x [MinY, MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Square returns the axis-aligned square with lower-left corner at origin and
// the given side length.
func Square(side float64) Rect {
	return Rect{0, 0, side, side}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Diameter returns the Euclidean diameter of r (Definition 11 of the paper):
// the maximum distance between any two points of the region, i.e. the length
// of its diagonal.
func (r Rect) Diameter() float64 {
	return math.Hypot(r.Width(), r.Height())
}

// Center returns the center point of r. Halving compiles to a product with
// 0.5, so each coordinate is rounded on its own: a caller that adds to it
// gets the same bits on every architecture.
func (r Rect) Center() Point {
	return Point{float64((r.MinX + r.MaxX) / 2), float64((r.MinY + r.MaxY) / 2)}
}

// LatticePathHops returns the hop length of the upper/lower lattice paths
// associated with the segment from u to v on a square lattice of step s
// (Definition 8). Both paths have the same hop count,
// ceil(|dx|/s) + ceil(|dy|/s), which is what Theorem 2 bounds by
// sqrt(2) * |uv| / s when u and v are lattice points.
func LatticePathHops(u, v Point, s float64) int {
	if s <= 0 {
		return 0
	}
	dx := math.Abs(v.X - u.X)
	dy := math.Abs(v.Y - u.Y)
	return int(math.Ceil(dx/s-1e-9)) + int(math.Ceil(dy/s-1e-9))
}
