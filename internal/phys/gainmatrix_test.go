package phys

import (
	"math"
	"math/rand"
	"testing"

	"scream/internal/geom"
)

// countingPathLoss counts its Gain evaluations.
type countingPathLoss struct {
	LogDistance
	evals *int
}

func (c countingPathLoss) Gain(d float64) float64 {
	*c.evals++
	return c.LogDistance.Gain(d)
}

// TestBuildGainMatrixExact: every entry of the cached one-pass build equals
// pl.Gain(pos[i].Dist(pos[j])) bit for bit (times the shadowing factor when
// shadowed), the diagonal is 0, and pl.Gain runs once per distinct distance
// the cache has room for.
func TestBuildGainMatrixExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var grid, uniform, colocated, colliding []geom.Point
	for i := 0; i < 256; i++ {
		grid = append(grid, geom.Point{X: float64(i%16) * 30, Y: float64(i/16) * 30})
	}
	for i := 0; i < 120; i++ {
		uniform = append(uniform, geom.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500})
	}
	for i := 0; i < 12; i++ {
		// Pairs share a position: distance 0 clamps to RefDist.
		colocated = append(colocated, geom.Point{X: float64(i/2) * 0.4, Y: 3})
	}
	// Nodes on a line whose distances from the origin node all land in one
	// slot of the table a 9-node build uses, so every lookup after the first
	// probes past the others, and the 36 distinct distances overflow the
	// table's capacity.
	c := newGainCache(DefaultLogDistance(), 9)
	colliding = append(colliding, geom.Point{})
	target := c.home(math.Float64bits(100))
	for x := 1.0; len(colliding) < 9; x += 0.37 {
		if c.home(math.Float64bits(x)) == target {
			colliding = append(colliding, geom.Point{X: x})
		}
	}
	shadow := make([][]float64, len(uniform))
	for i := range shadow {
		shadow[i] = make([]float64, len(uniform))
	}
	for i := range shadow {
		for j := i + 1; j < len(shadow); j++ {
			s := rng.NormFloat64() * 8
			shadow[i][j], shadow[j][i] = s, s
		}
	}
	cases := []struct {
		name   string
		pos    []geom.Point
		shadow [][]float64
	}{
		{"grid", grid, nil},
		{"uniform", uniform, nil},
		{"colocated", colocated, nil},
		{"shadowed", uniform, shadow},
		{"colliding", colliding, nil},
	}
	pl := DefaultLogDistance()
	for _, tc := range cases {
		evals := 0
		gain := BuildGainMatrix(tc.pos, countingPathLoss{pl, &evals}, tc.shadow)
		n := len(tc.pos)
		if len(gain) != n*n {
			t.Fatalf("%s: %d entries for %d nodes", tc.name, len(gain), n)
		}
		distinct := map[uint64]bool{}
		for i, pi := range tc.pos {
			if gain[i*n+i] != 0 {
				t.Fatalf("%s: gain[%d][%d] = %v, want 0", tc.name, i, i, gain[i*n+i])
			}
			for j, pj := range tc.pos {
				if i == j {
					continue
				}
				d := pi.Dist(pj)
				distinct[math.Float64bits(d)] = true
				want := pl.Gain(d)
				if tc.shadow != nil {
					want *= math.Pow(10, -tc.shadow[i][j]/10)
				}
				if math.Float64bits(gain[i*n+j]) != math.Float64bits(want) {
					t.Fatalf("%s: gain[%d][%d] = %v, want %v", tc.name, i, j, gain[i*n+j], want)
				}
			}
		}
		if len(distinct) <= n && evals != len(distinct) {
			t.Errorf("%s: %d path-loss evaluations for %d distinct distances", tc.name, evals, len(distinct))
		}
		if pairs := n * (n - 1) / 2; evals > pairs {
			t.Errorf("%s: %d path-loss evaluations for %d pairs", tc.name, evals, pairs)
		}
		t.Logf("%s: %d nodes, %d distinct distances, %d evaluations", tc.name, n, len(distinct), evals)
	}
}

// TestGainCacheCollisions drives one cache with far more distances than it
// stores, many sharing a home slot, and asserts every lookup, first or
// repeated, returns pl.Gain's bits, while the table never fills beyond half.
func TestGainCacheCollisions(t *testing.T) {
	pl := DefaultLogDistance()
	c := newGainCache(pl, 8)
	rng := rand.New(rand.NewSource(1))
	var ds []float64
	for len(ds) < 64 {
		d := rng.Float64() * 200
		if len(ds) < 32 && c.home(math.Float64bits(d)) != 3 {
			continue // the first 32 all collide in slot 3
		}
		ds = append(ds, d)
	}
	ds = append(ds, 0, 0.5, 1, math.Inf(1), 1e300) // clamped, reference and underflowing distances
	for round := 0; round < 3; round++ {
		for _, d := range ds {
			if got, want := c.gain(d), pl.Gain(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d: gain(%v) = %v, want %v", round, d, got, want)
			}
		}
	}
	filled := 0
	for _, s := range c.slots {
		if s.gain != 0 {
			filled++
		}
	}
	if filled > len(c.slots)/2 {
		t.Fatalf("%d of %d slots filled; the table stops at half", filled, len(c.slots))
	}
}
