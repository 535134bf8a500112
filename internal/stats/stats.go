// Package stats provides the small statistics toolkit used by the experiment
// harness: sample summaries, 95% confidence intervals (Student-t), and series
// containers for figure data. The paper reports every simulation result with
// 95% confidence intervals (Section VI-A).
package stats

import (
	"math"
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

// Add records one observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

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
		sum += d * d
	}
	return sum / float64(n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// SortedPercentiles returns the p-th percentile (0 <= p <= 100, linear
// interpolation between closest ranks) for each p from one in-place sort of
// the observations, without copying them (0s for an empty sample). The
// sort reorders the sample, so Mean, an insertion-order sum, may change in
// its last bits afterwards: read it first when the result must match an
// unsorted Mean exactly.
func (s *Sample) SortedPercentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(s.xs) == 0 {
		return out
	}
	sort.Float64s(s.xs)
	for i, p := range ps {
		out[i] = percentileSorted(s.xs, p)
	}
	return out
}

// percentileSorted interpolates the p-th percentile of a non-empty,
// ascending sample (see Percentile).
func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
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
