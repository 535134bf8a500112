package traffic

// Arrival processes for the flow-level dynamic traffic subsystem
// (internal/flow). Where the generators in traffic.go draw a *static* demand
// vector — the input of the paper's one-shot scheduling problem — an Arrival
// produces a *stream* of packet arrival times over simulated time. The flow
// simulator attaches one Arrival per source node and re-runs the schedulers
// against the backlog those streams build up.

import (
	"fmt"
	"math/rand"

	"scream/internal/des"
)

// Arrival is a pluggable packet arrival process. Next returns the absolute
// simulated time of the process's next arrival strictly after now, drawing
// any randomness from rng. Implementations may carry state (e.g. the on/off
// phase of Bursty), so an Arrival value must not be shared between nodes.
type Arrival interface {
	Next(now des.Time, rng *rand.Rand) des.Time
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
	return &CBR{Interval: des.FromSeconds(1 / rate)}, nil
}

// Next implements Arrival.
func (c *CBR) Next(now des.Time, _ *rand.Rand) des.Time {
	if c.Interval <= 0 {
		return now + 1
	}
	return now + c.Interval
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
func (p *Poisson) Next(now des.Time, rng *rand.Rand) des.Time {
	dt := des.FromSeconds(rng.ExpFloat64() / p.Rate)
	if dt <= 0 {
		dt = 1
	}
	return now + dt
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
	d := des.Time(rng.ExpFloat64() * float64(mean))
	if d <= 0 {
		d = 1
	}
	return d
}

// Next implements Arrival. Residual interarrival draws discarded at a state
// flip cost nothing: exponential interarrivals are memoryless, so restarting
// the Poisson clock at the next ON period leaves the process exact.
func (b *Bursty) Next(now des.Time, rng *rand.Rand) des.Time {
	if !b.init {
		b.init = true
		b.on = false
		b.stateEnd = now + expDuration(b.MeanOff, rng)
	}
	t := now
	for {
		if b.on {
			dt := des.FromSeconds(rng.ExpFloat64() / b.PeakRate)
			if dt <= 0 {
				dt = 1
			}
			if t+dt <= b.stateEnd {
				return t + dt
			}
			t = b.stateEnd
			b.on = false
			b.stateEnd = t + expDuration(b.MeanOff, rng)
		} else {
			if b.stateEnd < t {
				// The caller jumped past the OFF period's end (possible when
				// arrivals are consumed lazily); resynchronize.
				b.stateEnd = t
			}
			t = b.stateEnd
			b.on = true
			b.stateEnd = t + expDuration(b.MeanOn, rng)
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
