// Package traffic provides per-node demand generators. The paper's
// evaluation draws node demands uniformly from [1, 10] (Section VI-A).
package traffic

import (
	"fmt"
	"math/rand"
)

// Uniform draws n integer demands uniformly from [lo, hi] inclusive.
func Uniform(n, lo, hi int, rng *rand.Rand) ([]int, error) {
	if lo > hi {
		return nil, fmt.Errorf("traffic: lo %d > hi %d", lo, hi)
	}
	if lo < 0 {
		return nil, fmt.Errorf("traffic: negative demand %d", lo)
	}
	d := make([]int, n)
	for i := range d {
		d[i] = lo + rng.Intn(hi-lo+1)
	}
	return d, nil
}

// Zipf draws n integer demands from 1 + Zipf(s, v, max-1), modelling skewed
// client populations (a few hotspot routers carry most client traffic).
func Zipf(n int, s, v float64, max uint64, rng *rand.Rand) ([]int, error) {
	if s <= 1 || v < 1 || max < 1 {
		return nil, fmt.Errorf("traffic: invalid zipf parameters s=%v v=%v max=%d", s, v, max)
	}
	z := rand.NewZipf(rng, s, v, max-1)
	if z == nil {
		return nil, fmt.Errorf("traffic: rand.NewZipf rejected parameters")
	}
	d := make([]int, n)
	for i := range d {
		d[i] = int(z.Uint64()) + 1
	}
	return d, nil
}
