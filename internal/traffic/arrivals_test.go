package traffic

import (
	"math"
	"math/rand"
	"testing"

	"scream/internal/des"
)

// TestGeneratorEdgeCases is the table covering the static generators'
// parameter validation: Uniform lo>hi, Zipf parameter rejection, and
// Constant edge cases.
// maxTime is the largest des.Time: the value saturating draws return, and
// the horizon of a caller that takes every arrival.
const maxTime = des.Time(math.MaxInt64)

func TestGeneratorEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name    string
		run     func() ([]int, error)
		wantErr bool
		check   func(t *testing.T, d []int)
	}{
		{"uniform lo>hi", func() ([]int, error) { return Uniform(4, 7, 3, rng) }, true, nil},
		{"uniform lo>hi negative", func() ([]int, error) { return Uniform(4, 0, -1, rng) }, true, nil},
		{"uniform negative lo", func() ([]int, error) { return Uniform(4, -2, 5, rng) }, true, nil},
		{"uniform zero demand allowed", func() ([]int, error) { return Uniform(4, 0, 0, rng) }, false,
			func(t *testing.T, d []int) {
				for _, x := range d {
					if x != 0 {
						t.Errorf("got %d, want 0", x)
					}
				}
			}},
		{"uniform n=0", func() ([]int, error) { return Uniform(0, 1, 10, rng) }, false,
			func(t *testing.T, d []int) {
				if len(d) != 0 {
					t.Errorf("len = %d, want 0", len(d))
				}
			}},
		{"zipf s=1 rejected", func() ([]int, error) { return Zipf(4, 1.0, 1, 10, rng) }, true, nil},
		{"zipf s<1 rejected", func() ([]int, error) { return Zipf(4, 0.5, 1, 10, rng) }, true, nil},
		{"zipf v<1 rejected", func() ([]int, error) { return Zipf(4, 1.5, 0, 10, rng) }, true, nil},
		{"zipf max=0 rejected", func() ([]int, error) { return Zipf(4, 1.5, 1, 0, rng) }, true, nil},
		{"zipf max=1 degenerate", func() ([]int, error) { return Zipf(4, 1.5, 1, 1, rng) }, false,
			func(t *testing.T, d []int) {
				for _, x := range d {
					if x != 1 {
						t.Errorf("max=1 zipf gave %d, want 1", x)
					}
				}
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.run()
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, d)
			}
		})
	}
}

func TestCBR(t *testing.T) {
	if _, err := NewCBR(0); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewCBR(-5); err == nil {
		t.Error("negative rate should fail")
	}
	c, err := NewCBR(1000) // 1 packet/ms
	if err != nil {
		t.Fatal(err)
	}
	now := des.Time(0)
	for i := 1; i <= 5; i++ {
		now = c.Next(now, maxTime, nil)
		if now != des.Time(i)*des.Millisecond {
			t.Fatalf("arrival %d at %v, want %v", i, now, des.Time(i)*des.Millisecond)
		}
	}
}

// TestDrawsSaturate: an arrival past the largest des.Time comes back as
// the largest des.Time, never as a wrapped value, while an Interval: 0 CBR
// keeps arriving every tick.
func TestDrawsSaturate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, err := NewCBR(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if c.Interval != maxTime {
		t.Errorf("NewCBR(1e-12).Interval = %d, want %d", c.Interval, maxTime)
	}
	if got := c.Next(5*des.Second, maxTime, rng); got != maxTime {
		t.Errorf("CBR past the end: Next = %d, want %d", got, maxTime)
	}
	if got := (&CBR{Interval: maxTime - 3}).Next(10, maxTime, rng); got != maxTime {
		t.Errorf("CBR now+Interval overflowing: Next = %d, want %d", got, maxTime)
	}
	if got := (&CBR{Interval: 0}).Next(5, maxTime, rng); got != 6 {
		t.Errorf("CBR Interval 0: Next = %d, want 6", got)
	}
	if got := (&Poisson{Rate: 1e-12}).Next(0, maxTime, rng); got != maxTime {
		t.Errorf("Poisson 1e-12: Next = %d, want %d", got, maxTime)
	}
	for _, now := range []des.Time{0, des.Second, maxTime - 1} {
		b := &Bursty{PeakRate: 1e-12, MeanOn: des.Millisecond, MeanOff: des.Millisecond}
		if got := b.Next(now, maxTime, rng); got != maxTime {
			t.Errorf("Bursty 1e-12 from %d: Next = %d, want %d", now, got, maxTime)
		}
	}
	for i := 0; i < 100; i++ {
		// OFF periods that overrun the clock end it instead of wrapping.
		b := &Bursty{PeakRate: 1e3, MeanOn: des.Millisecond, MeanOff: maxTime}
		if now := maxTime / 2; b.Next(now, maxTime, rng) <= now {
			t.Fatalf("Bursty with MeanOff %d: Next(%d) wrapped", maxTime, now)
		}
	}
}

func TestPoissonRate(t *testing.T) {
	if _, err := NewPoisson(0); err == nil {
		t.Error("zero rate should fail")
	}
	p, err := NewPoisson(500)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	now := des.Time(0)
	const n = 20000
	for i := 0; i < n; i++ {
		next := p.Next(now, maxTime, rng)
		if next <= now {
			t.Fatalf("non-increasing arrival: %v -> %v", now, next)
		}
		now = next
	}
	rate := float64(n) / now.Seconds()
	if math.Abs(rate-500)/500 > 0.05 {
		t.Errorf("empirical rate %.1f, want ~500", rate)
	}
}

func TestBurstyMeanRate(t *testing.T) {
	if _, err := NewBursty(0, des.Millisecond, des.Millisecond); err == nil {
		t.Error("zero peak rate should fail")
	}
	if _, err := NewBursty(100, 0, des.Millisecond); err == nil {
		t.Error("zero mean-on should fail")
	}
	if _, err := NewBursty(100, des.Millisecond, 0); err == nil {
		t.Error("zero mean-off should fail")
	}
	b, err := NewBursty(2000, 10*des.Millisecond, 30*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	const want = 500.0 // peak 2000 pkt/s, on a quarter of the time
	rng := rand.New(rand.NewSource(11))
	now := des.Time(0)
	const n = 20000
	for i := 0; i < n; i++ {
		next := b.Next(now, maxTime, rng)
		if next <= now {
			t.Fatalf("non-increasing arrival: %v -> %v", now, next)
		}
		now = next
	}
	rate := float64(n) / now.Seconds()
	if math.Abs(rate-want)/want > 0.1 {
		t.Errorf("empirical rate %.1f, want ~%.1f", rate, want)
	}
}

// TestBurstyStopsAtHorizon: a source whose next arrival lies far past the
// horizon returns the first period start at or past it, having stepped only
// through the periods before it.
func TestBurstyStopsAtHorizon(t *testing.T) {
	const horizon = 10 * des.Millisecond
	rng := rand.New(rand.NewSource(3))
	// About 1,000 s to the first arrival, in periods of 4 us on average.
	b, err := NewBursty(4e-3, des.Microsecond, 3*des.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Next(0, horizon, rng); got < horizon {
		t.Fatalf("Next = %v, want at or past the horizon %v", got, horizon)
	}
}

// TestBurstyIsBursty verifies the defining property: interarrival times are
// far more variable than a Poisson stream of the same mean rate (the squared
// coefficient of variation of an MMPP with long off periods is >> 1).
func TestBurstyIsBursty(t *testing.T) {
	b, _ := NewBursty(5000, 5*des.Millisecond, 45*des.Millisecond) // mean 500/s
	rng := rand.New(rand.NewSource(13))
	now := des.Time(0)
	const n = 20000
	var sum, sumsq float64
	prev := now
	for i := 0; i < n; i++ {
		next := b.Next(prev, maxTime, rng)
		dt := (next - prev).Seconds()
		sum += dt
		sumsq += dt * dt
		prev = next
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	scv := variance / (mean * mean)
	if scv < 2 {
		t.Errorf("squared coefficient of variation %.2f; want >> 1 for an on/off source", scv)
	}
}

func TestHotspotRates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rates, err := HotspotRates(256, 1.5, 1, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	maxRate := 0.0
	for _, r := range rates {
		if r < 0 {
			t.Fatalf("negative rate %v", r)
		}
		sum += r
		if r > maxRate {
			maxRate = r
		}
	}
	if math.Abs(sum-256) > 1e-6 {
		t.Errorf("rates sum to %v, want n=256 (mean 1)", sum)
	}
	if maxRate < 2 {
		t.Errorf("max multiplier %v; zipf hotspots should be well above the mean", maxRate)
	}
	if _, err := HotspotRates(8, 1.0, 1, 32, rng); err == nil {
		t.Error("invalid zipf parameters should propagate")
	}
}
