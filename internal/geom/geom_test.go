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
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestDistSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Point{ax, ay}, Point{bx, by}
		return p.Dist(q) == q.Dist(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := Point{rng.Float64() * 100, rng.Float64() * 100}
		b := Point{rng.Float64() * 100, rng.Float64() * 100}
		c := Point{rng.Float64() * 100, rng.Float64() * 100}
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}

func TestVectorOps(t *testing.T) {
	p, q := Point{1, 2}, Point{3, 5}
	if got := p.Add(q); got != (Point{4, 7}) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); got != (Point{2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestRect(t *testing.T) {
	r := Square(10)
	if r.Width() != 10 || r.Height() != 10 {
		t.Fatalf("Square(10) dims = %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 100 {
		t.Errorf("Area = %v, want 100", r.Area())
	}
	if want := 10 * math.Sqrt2; math.Abs(r.Diameter()-want) > 1e-12 {
		t.Errorf("Diameter = %v, want %v", r.Diameter(), want)
	}
	if c := r.Center(); c != (Point{5, 5}) {
		t.Errorf("Center = %v", c)
	}
}

func TestLatticePathHops(t *testing.T) {
	// On a unit lattice, the path from (0,0) to (3,4) needs 3+4 hops,
	// matching (sin b + cos b) * len from Theorem 2's proof.
	if got := LatticePathHops(Point{0, 0}, Point{3, 4}, 1); got != 7 {
		t.Errorf("hops = %d, want 7", got)
	}
	// Axis-aligned segment: hop count equals length/step.
	if got := LatticePathHops(Point{0, 0}, Point{5, 0}, 1); got != 5 {
		t.Errorf("hops = %d, want 5", got)
	}
	// Degenerate step.
	if got := LatticePathHops(Point{0, 0}, Point{5, 0}, 0); got != 0 {
		t.Errorf("hops with zero step = %d, want 0", got)
	}
}

// TestLatticePathHopsTheorem2Bound checks the core inequality behind
// Theorem 2: hops <= sqrt(2) * dist / step for lattice-point endpoints.
func TestLatticePathHopsTheorem2Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		s := 1.0 + rng.Float64()*9
		u := Point{float64(rng.Intn(50)) * s, float64(rng.Intn(50)) * s}
		v := Point{float64(rng.Intn(50)) * s, float64(rng.Intn(50)) * s}
		hops := LatticePathHops(u, v, s)
		bound := math.Sqrt2 * u.Dist(v) / s
		if float64(hops) > bound+1e-6 {
			t.Fatalf("hops %d exceeds sqrt2 bound %.4f for u=%v v=%v s=%v", hops, bound, u, v, s)
		}
	}
}
