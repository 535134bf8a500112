// Package stats provides the small statistics toolkit used by the experiment
// harness: sample summaries, 95% confidence intervals (Student-t), and series
// containers for figure data. The paper reports every simulation result with
// 95% confidence intervals (Section VI-A).
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Sample accumulates scalar observations.
type Sample struct {
	xs []float64
}

// NewSample returns a Sample pre-sized for n observations.
func NewSample(n int) *Sample {
	return &Sample{xs: make([]float64, 0, n)}
}

// Reset empties the sample and makes room for n observations, keeping the
// storage it has when that holds n.
func (s *Sample) Reset(n int) {
	if cap(s.xs) < n {
		s.xs = make([]float64, 0, n)
		return
	}
	s.xs = s.xs[:0]
}

// Add records one observation. A full sample grows to twice its length (16
// at least), so n adds to a fresh sample take O(log n) allocations and copy
// O(n) observations; append alone grows a slice this large by about 1.25×
// a step.
func (s *Sample) Add(x float64) {
	if len(s.xs) == cap(s.xs) {
		s.xs = append(make([]float64, 0, max(2*len(s.xs), 16)), s.xs...)
	}
	s.xs = append(s.xs, x)
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Variance returns the unbiased sample variance (n-1 denominator).
func (s *Sample) Variance() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += float64(d * d)
	}
	return sum / float64(n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Percentiles returns the p-th percentile (0 <= p <= 100, linear
// interpolation between closest ranks) for each p, or 0s for an empty
// sample. Instead of sorting, it selects in place just the order statistics
// the ps read, in ascending rank, each among the observations above the
// last, so the values equal, bit for bit, percentileSorted on a sorted copy.
// The selection reorders the sample, so Mean, an insertion-order sum, may
// change in its last bits afterwards: read it first when the result must
// match an unsorted Mean exactly.
func (s *Sample) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	n := len(s.xs)
	if n == 0 {
		return out
	}
	// Every rank below from that a p reads holds its sorted value, and no
	// value in s.xs[from:] is smaller than one before it.
	for from := 0; ; {
		k := n
		for _, p := range ps {
			lo, hi, _ := ranks(p, n)
			for _, r := range [2]int{lo, hi} {
				if r >= from && r < k {
					k = r
				}
			}
		}
		if k == n {
			break
		}
		from += selectRank(s.xs[from:], k-from)
	}
	for i, p := range ps {
		out[i] = percentileSorted(s.xs, p)
	}
	return out
}

// ranks returns the two neighbouring ranks whose values the p-th percentile
// of n observations interpolates, and the weight of the upper one.
func ranks(p float64, n int) (lo, hi int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 100 {
		return n - 1, n - 1, 0
	}
	rank := float64(p / 100 * float64(n-1))
	lo = int(math.Floor(rank))
	return lo, int(math.Ceil(rank)), rank - float64(lo)
}

// percentileSorted interpolates the p-th percentile of a non-empty sample
// that holds, at the ranks p reads, the values an ascending sort puts there.
func percentileSorted(sorted []float64, p float64) float64 {
	lo, hi, frac := ranks(p, len(sorted))
	if lo == hi {
		return sorted[lo]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// less is sort.Float64s's order: ascending, NaNs first.
func less(a, b float64) bool { return a < b || a != a && b == b }

// selectRank reorders xs so that xs[k] holds the value an ascending sort
// puts there, with no larger value before it and no smaller one after, and
// returns an end > k such that xs[k:end] all hold their sorted values and
// none after is smaller. It is a quickselect with a median-of-three pivot
// and a three-way partition, so the copies of a tied value settle in one
// step and end covers them all; past 2·log2(n) rounds it sorts what is
// left, which bounds the worst case at O(n log n).
func selectRank(xs []float64, k int) (end int) {
	off := 0 // xs is the part of the caller's slice from off on
	for budget := 2 * bits.Len(uint(len(xs))); len(xs) > 1; budget-- {
		if budget == 0 {
			sort.Float64s(xs)
			return off + len(xs)
		}
		a, b, c := xs[0], xs[len(xs)/2], xs[len(xs)-1]
		if less(b, a) {
			a, b = b, a
		}
		if less(c, b) {
			b = c
			if less(b, a) {
				b = a
			}
		}
		pivot := b
		// xs[:lt] < pivot, xs[lt:i] == pivot, xs[gt:] > pivot.
		lt, i, gt := 0, 0, len(xs)
		for i < gt {
			switch x := xs[i]; {
			case less(x, pivot):
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case less(pivot, x):
				gt--
				xs[i], xs[gt] = xs[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			xs = xs[:lt]
		case k >= gt:
			xs, k, off = xs[gt:], k-gt, off+gt
		default:
			return off + gt
		}
	}
	return off + k + 1
}

// CI95 returns the half-width of the 95% confidence interval for the mean
// using the Student-t distribution. It returns 0 when fewer than two
// observations are available.
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return tCritical95(n-1) * s.StdDev() / math.Sqrt(float64(n))
}

// tCritical95 returns the two-sided 0.05 critical value of the Student-t
// distribution with df degrees of freedom. Values for small df are tabulated;
// larger df fall back to an asymptotic expansion around the normal quantile.
func tCritical95(df int) float64 {
	table := []float64{
		// df: 1 .. 30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return math.NaN()
	case df <= len(table):
		return table[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}
