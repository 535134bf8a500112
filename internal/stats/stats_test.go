package stats

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	s := NewSample(4)
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Known dataset: population variance 4, sample variance 32/7.
	if got, want := s.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

// TestSampleAddAllocations pins the allocations of n adds to a fresh
// sample: a full sample at least doubles, so there are at most
// bits.Len(n)+1 of them (append's own growth takes 12 for n = 1,000 and
// 28 for n = 100,000).
func TestSampleAddAllocations(t *testing.T) {
	for _, n := range []int{1, 10, 1000, 100000} {
		allocs := testing.AllocsPerRun(3, func() {
			var s Sample
			for i := 0; i < n; i++ {
				s.Add(float64(i))
			}
			if s.N() != n {
				t.Fatalf("N = %d after %d adds", s.N(), n)
			}
		})
		if limit := bits.Len(uint(n)) + 1; allocs > float64(limit) {
			t.Errorf("%d adds to a fresh sample: %v allocations, want at most %d", n, allocs, limit)
		}
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Variance() != 0 || s.CI95() != 0 {
		t.Error("empty sample should return zeros")
	}
	if s.percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestSingleObservation(t *testing.T) {
	s := NewSample(1)
	s.Add(3.5)
	if s.Mean() != 3.5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.CI95() != 0 {
		t.Errorf("CI95 with n=1 should be 0, got %v", s.CI95())
	}
}

func TestPercentile(t *testing.T) {
	s := NewSample(5)
	for _, x := range []float64{10, 20, 30, 40, 50} {
		s.Add(x)
	}
	tests := []struct {
		p, want float64
	}{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {-5, 10}, {110, 50},
	}
	for _, tt := range tests {
		if got := s.percentile(tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := NewSample(2)
	s.Add(0)
	s.Add(10)
	if got := s.percentile(50); math.Abs(got-5) > 1e-9 {
		t.Errorf("median of {0,10} = %v, want 5", got)
	}
}

func TestCI95KnownValue(t *testing.T) {
	// n=10 observations, sd=1: half-width should be t(9)*1/sqrt(10) = 0.7154.
	s := NewSample(10)
	base := []float64{-1.5, -1, -0.5, -0.25, 0, 0, 0.25, 0.5, 1, 1.5}
	// Rescale to sd exactly 1.
	raw := NewSample(10)
	for _, x := range base {
		raw.Add(x)
	}
	sd := raw.StdDev()
	for _, x := range base {
		s.Add(x / sd)
	}
	want := 2.262 / math.Sqrt(10)
	if got := s.CI95(); math.Abs(got-want) > 1e-3 {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

func TestCI95Coverage(t *testing.T) {
	// The 95% CI should contain the true mean roughly 95% of the time.
	rng := rand.New(rand.NewSource(7))
	const trials = 2000
	hits := 0
	for i := 0; i < trials; i++ {
		s := NewSample(12)
		for j := 0; j < 12; j++ {
			s.Add(rng.NormFloat64()*2 + 5)
		}
		ci := s.CI95()
		if m := s.Mean(); m-ci <= 5 && 5 <= m+ci {
			hits++
		}
	}
	rate := float64(hits) / trials
	if rate < 0.93 || rate > 0.97 {
		t.Errorf("CI coverage = %.3f, want about 0.95", rate)
	}
}

func TestMeanWithinMinMax(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		s := NewSample(len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true // skip pathological inputs
			}
			s.Add(x)
		}
		m := s.Mean()
		return m >= slices.Min(s.xs)-1e-6 && m <= slices.Max(s.xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		s := NewSample(len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true
			}
			s.Add(x)
		}
		return s.Variance() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTCriticalMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := tCritical95(df)
		if v > prev+1e-9 {
			t.Fatalf("tCritical95 not monotone non-increasing at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
	if got := tCritical95(0); !math.IsNaN(got) {
		t.Errorf("tCritical95(0) = %v, want NaN", got)
	}
	if got := tCritical95(1000000); got != 1.96 {
		t.Errorf("tCritical95(inf) = %v, want 1.96", got)
	}
}

func TestFigureTSV(t *testing.T) {
	fig := NewFigure("test fig", "x", "y")
	a := fig.AddSeries("a")
	b := fig.AddSeries("b")
	a.Append(1, 10, 0.5)
	a.Append(2, 20, 0.6)
	b.Append(1, 11, 0.1)
	b.Append(2, 21, 0.2)

	var buf bytes.Buffer
	if err := fig.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# test fig", "x\ta\ta_ci95\tb\tb_ci95", "1\t10.0000\t0.5000\t11.0000\t0.1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("TSV output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureTSVRaggedSeries(t *testing.T) {
	fig := NewFigure("ragged", "x", "y")
	a := fig.AddSeries("a")
	b := fig.AddSeries("b")
	a.Append(1, 10, 0)
	a.Append(2, 20, 0)
	b.Append(1, 5, 0)
	var buf bytes.Buffer
	if err := fig.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2\t20.0000\t0.0000\t\t") {
		t.Errorf("ragged series should emit empty cells:\n%s", buf.String())
	}
}

func TestRenderASCII(t *testing.T) {
	fig := NewFigure("ascii", "x", "y")
	s := fig.AddSeries("s")
	for i := 0; i <= 10; i++ {
		s.Append(float64(i), float64(i*i), 0)
	}
	var buf bytes.Buffer
	if err := fig.RenderASCII(&buf, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "*") {
		t.Error("ASCII render should contain data marks")
	}
	if !strings.Contains(out, "* = s") {
		t.Error("ASCII render should contain legend")
	}
}

func TestRenderASCIIEmpty(t *testing.T) {
	fig := NewFigure("empty", "x", "y")
	var buf bytes.Buffer
	if err := fig.RenderASCII(&buf, 5, 2); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("should still emit a frame")
	}
}

// TestPercentileTable extends TestPercentile with the cases the flow
// subsystem's delay metrics lean on: empty sample, single element, the
// p<=0 / p>=100 clamps, exact ranks and linear interpolation between them.
func TestPercentileTable(t *testing.T) {
	from := func(xs ...float64) *Sample {
		s := NewSample(len(xs))
		for _, x := range xs {
			s.Add(x)
		}
		return s
	}
	cases := []struct {
		name string
		s    *Sample
		p    float64
		want float64
	}{
		{"empty", NewSample(0), 50, 0},
		{"empty p0", NewSample(0), 0, 0},
		{"single p0", from(7), 0, 7},
		{"single p50", from(7), 50, 7},
		{"single p100", from(7), 100, 7},
		{"p0 is min", from(3, 1, 2), 0, 1},
		{"p100 is max", from(3, 1, 2), 100, 3},
		{"negative p clamps to min", from(3, 1, 2), -10, 1},
		{"p>100 clamps to max", from(3, 1, 2), 150, 3},
		{"median odd", from(5, 1, 3), 50, 3},
		{"median even interpolates", from(1, 2, 3, 4), 50, 2.5},
		{"quartile interpolates", from(0, 10), 25, 2.5},
		{"p95 of 0..100", func() *Sample {
			s := NewSample(101)
			for i := 100; i >= 0; i-- { // insertion order must not matter
				s.Add(float64(i))
			}
			return s
		}(), 95, 95},
		{"exact rank no interpolation", from(10, 20, 30, 40, 50), 25, 20},
		{"interpolated rank", from(10, 20, 30, 40, 50), 30, 22},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.percentile(tc.p); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

// TestPercentileMonotone: for any sample, Percentile must be monotone in p
// and bounded by [Min, Max].
func TestPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSample(40)
	for i := 0; i < 40; i++ {
		s.Add(rng.NormFloat64() * 10)
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		got := s.percentile(p)
		if got < prev {
			t.Fatalf("Percentile(%v) = %v < Percentile at previous p %v", p, got, prev)
		}
		if lo, hi := slices.Min(s.xs), slices.Max(s.xs); got < lo || got > hi {
			t.Fatalf("Percentile(%v) = %v outside [%v, %v]", p, got, lo, hi)
		}
		prev = got
	}
}

// TestPercentilesMatchSortedCopy: the selected percentiles equal, bit for
// bit, percentileSorted on a sorted copy at every p — on random samples with
// heavy ties, on n = 1, 2 and 3, and at ranks that fall exactly on an
// element — and a Mean read before them equals the untouched sample's.
func TestPercentilesMatchSortedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	check := func(name string, xs []float64, ps ...float64) {
		t.Helper()
		s := sampleOf(xs)
		ref := sortedCopy(xs)
		mean := s.Mean()
		got := s.Percentiles(ps...)
		if math.Float64bits(mean) != math.Float64bits(sampleOf(xs).Mean()) {
			t.Fatalf("%s: mean read first %v, untouched sample %v", name, mean, sampleOf(xs).Mean())
		}
		if len(got) != len(ps) || s.N() != len(xs) {
			t.Fatalf("%s: %d percentiles for %d ps, N %d for %d observations", name, len(got), len(ps), s.N(), len(xs))
		}
		for i, p := range ps {
			if want := percentileSorted(ref, p); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s (n=%d): p%v = %v, sorted copy %v", name, len(xs), p, got[i], want)
			}
		}
	}
	// Random samples with heavy ties, in random and in reversed p order.
	ps := []float64{0, 0.1, 50, 95, 99.9, 100}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(300)
		values := make([]float64, 1+rng.Intn(8))
		for i := range values {
			values[i] = rng.ExpFloat64() * 1e-3
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = values[rng.Intn(len(values))]
		}
		check(fmt.Sprintf("trial %d", trial), xs, ps...)
		check(fmt.Sprintf("trial %d reversed", trial), xs, 100, 95, 50, 0.1)
		check(fmt.Sprintf("trial %d p50,p95", trial), xs, 50, 95)
	}
	// Distinct values, large enough for many partition rounds.
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	check("distinct", xs, 50, 95)
	check("ascending", sortedCopy(xs), 50, 95)
	// n = 1, 2, 3, every permutation of distinct and tied values.
	for _, xs := range [][]float64{
		{7}, {1, 2}, {2, 1}, {3, 3},
		{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}, {2, 2, 1}, {1, 2, 1},
	} {
		check(fmt.Sprint(xs), xs, 0, 25, 50, 75, 95, 100)
	}
	// Ranks exactly on an element: p50 of odd n, p25 and p75 of n = 5,
	// p95 of n = 21 (rank 19).
	check("exact odd median", []float64{5, 1, 4, 2, 3}, 25, 50, 75)
	check("exact p95", []float64{20, 3, 19, 1, 18, 5, 17, 2, 16, 4, 15, 6, 14, 7, 13, 8, 12, 9, 11, 10, 0}, 95, 50)

	if got := NewSample(0).Percentiles(50, 95); got[0] != 0 || got[1] != 0 {
		t.Errorf("empty sample: %v, want zeros", got)
	}
}

// sampleOf returns a sample holding xs, in order.
func sampleOf(xs []float64) *Sample {
	s := NewSample(len(xs))
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func sortedCopy(xs []float64) []float64 {
	ys := slices.Clone(xs)
	sort.Float64s(ys)
	return ys
}

// TestSelectRankOrganPipe: on an organ-pipe sequence, a bad case for
// median-of-three pivots, and on heavy ties, selectRank puts the sorted
// value at every rank tried and at every rank up to the end it returns,
// with no value on the wrong side of them.
func TestSelectRankOrganPipe(t *testing.T) {
	const n = 4096
	pipe, ties := make([]float64, n), make([]float64, n)
	for i := range pipe {
		pipe[i] = float64(min(i, n-1-i))
		ties[i] = float64(i * 7 % 5)
	}
	for _, xs := range [][]float64{pipe, ties} {
		ref := sortedCopy(xs)
		for _, k := range []int{0, 1, n / 2, n - 2, n - 1} {
			ys := slices.Clone(xs)
			end := selectRank(ys, k)
			if end <= k || end > n {
				t.Fatalf("rank %d: end %d", k, end)
			}
			for i := k; i < end; i++ {
				if ys[i] != ref[i] {
					t.Fatalf("rank %d (end %d): xs[%d] = %v, sorted %v", k, end, i, ys[i], ref[i])
				}
			}
			for i := range ys {
				if i < k && ys[i] > ys[k] || i >= end && ys[i] < ys[end-1] {
					t.Fatalf("rank %d (end %d): xs[%d] = %v on the wrong side", k, end, i, ys[i])
				}
			}
		}
	}
}

// percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func (s *Sample) percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, s.xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}
