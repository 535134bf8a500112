package traffic

// Arrival processes for the flow-level dynamic traffic subsystem
// (internal/flow). Where the generators in traffic.go draw a *static* demand
// vector — the input of the paper's one-shot scheduling problem — an Arrival
// produces a *stream* of packet arrival times over simulated time. The flow
// simulator attaches one Arrival per source node and re-runs the schedulers
// against the backlog those streams build up.

import (
	"fmt"
	"math"
	"math/rand"

	"scream/internal/des"
)

// Arrival is a pluggable packet arrival process. Next returns the absolute
// simulated time of the process's next arrival strictly after now, drawing
// any randomness from rng. horizon is where the caller stops taking
// arrivals: once a process knows its next arrival lies at or past it, it may
// stop drawing and return any time at or past horizon instead. The caller
// must then not call Next again. Implementations may carry state (e.g. the
// on/off phase of Bursty), so an Arrival value must not be shared between
// nodes.
type Arrival interface {
	Next(now, horizon des.Time, rng *rand.Rand) des.Time
}

// toTime converts ns nanoseconds to a des.Time as a plain conversion does,
// except that a value too large for one becomes the largest des.Time
// instead of wrapping. That time (2^63 ns, about 292 years) lies past any
// horizon, so a source whose draw saturates stops there.
func toTime(ns float64) des.Time {
	if ns >= math.MaxInt64 {
		return math.MaxInt64
	}
	return des.Time(ns)
}

// after returns now + d for d > 0, saturating like toTime.
func after(now, d des.Time) des.Time {
	if d > math.MaxInt64-now {
		return math.MaxInt64
	}
	return now + d
}

// CBR is a constant-bit-rate source: one packet every Interval, jitter-free.
type CBR struct {
	Interval des.Time
}

// NewCBR returns a CBR source emitting rate packets per second.
func NewCBR(rate float64) (*CBR, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("traffic: CBR rate must be positive, got %v", rate)
	}
	return &CBR{Interval: toTime(1 / rate * float64(des.Second))}, nil
}

// Next implements Arrival.
func (c *CBR) Next(now, _ des.Time, _ *rand.Rand) des.Time {
	if c.Interval <= 0 {
		return now + 1
	}
	return after(now, c.Interval)
}

// Poisson is a memoryless source: exponential interarrivals at Rate packets
// per second.
type Poisson struct {
	Rate float64
}

// NewPoisson returns a Poisson source with the given mean rate (packets/s).
func NewPoisson(rate float64) (*Poisson, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("traffic: Poisson rate must be positive, got %v", rate)
	}
	return &Poisson{Rate: rate}, nil
}

// Next implements Arrival.
func (p *Poisson) Next(now, _ des.Time, rng *rand.Rand) des.Time {
	dt := toTime(rng.ExpFloat64() / p.Rate * float64(des.Second))
	if dt <= 0 {
		dt = 1
	}
	return after(now, dt)
}

// Bursty is a two-state on/off source (a Markov-modulated Poisson process):
// the source alternates between exponentially distributed ON periods, during
// which packets arrive as a Poisson stream at PeakRate, and exponentially
// distributed OFF periods with no arrivals. Its mean rate is
// PeakRate * MeanOn / (MeanOn + MeanOff).
type Bursty struct {
	PeakRate float64  // packets/s while ON
	MeanOn   des.Time // mean ON-period duration
	MeanOff  des.Time // mean OFF-period duration

	init     bool
	on       bool
	stateEnd des.Time
}

// NewBursty returns an on/off source starting in the OFF state.
func NewBursty(peakRate float64, meanOn, meanOff des.Time) (*Bursty, error) {
	if peakRate <= 0 {
		return nil, fmt.Errorf("traffic: Bursty peak rate must be positive, got %v", peakRate)
	}
	if meanOn <= 0 || meanOff <= 0 {
		return nil, fmt.Errorf("traffic: Bursty mean periods must be positive, got on=%v off=%v", meanOn, meanOff)
	}
	return &Bursty{PeakRate: peakRate, MeanOn: meanOn, MeanOff: meanOff}, nil
}

func expDuration(mean des.Time, rng *rand.Rand) des.Time {
	d := toTime(rng.ExpFloat64() * float64(mean))
	if d <= 0 {
		d = 1
	}
	return d
}

// Next implements Arrival. Residual interarrival draws discarded at a state
// flip cost nothing: exponential interarrivals are memoryless, so restarting
// the Poisson clock at the next ON period leaves the process exact. A period
// that starts at or past horizon ends the walk: its start is returned, so a
// sparse source whose next arrival lies many empty periods ahead steps only
// through the periods before the horizon.
func (b *Bursty) Next(now, horizon des.Time, rng *rand.Rand) des.Time {
	if !b.init {
		b.init = true
		b.on = false
		b.stateEnd = after(now, expDuration(b.MeanOff, rng))
	}
	t := now
	for {
		if b.on {
			dt := toTime(rng.ExpFloat64() / b.PeakRate * float64(des.Second))
			if dt <= 0 {
				dt = 1
			}
			// The ON time before the next arrival is exponential however
			// it is split over ON periods (the process is memoryless), so
			// a draw that reaches past the largest des.Time puts the
			// arrival there, without stepping through every period.
			if at := after(t, dt); at <= b.stateEnd || at == math.MaxInt64 {
				return at
			}
			t = b.stateEnd
			b.on = false
			b.stateEnd = after(t, expDuration(b.MeanOff, rng))
		} else {
			if b.stateEnd < t {
				// The caller jumped past the OFF period's end (possible when
				// arrivals are consumed lazily); resynchronize.
				b.stateEnd = t
			}
			t = b.stateEnd
			b.on = true
			b.stateEnd = after(t, expDuration(b.MeanOn, rng))
		}
		if t >= horizon {
			return t
		}
	}
}

// HotspotRates draws Zipf-skewed per-node rate multipliers, normalized to
// mean 1 over the n nodes — the hotspot client populations of traffic.Zipf
// recast as relative arrival rates for the flow subsystem. Multiplying a base
// packet rate by these keeps the aggregate offered load equal to n*base while
// concentrating it on a few hot routers.
func HotspotRates(n int, s, v float64, max uint64, rng *rand.Rand) ([]float64, error) {
	d, err := Zipf(n, s, v, max, rng)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, x := range d {
		total += x
	}
	rates := make([]float64, n)
	if total == 0 {
		return rates, nil
	}
	for i, x := range d {
		rates[i] = float64(x) * float64(n) / float64(total)
	}
	return rates, nil
}
