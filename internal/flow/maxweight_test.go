package flow

import (
	"math/rand"
	"testing"

	"scream/internal/core"
	"scream/internal/sched"
	"scream/internal/traffic"
)

// zipfArrivals attaches Poisson sources whose rates are Zipf-skewed around
// the given mean rate (traffic.HotspotRates): a few hotspot routers carry
// most of the offered load — the backlog regime the max-weight discipline
// exists for.
func (tb *testbed) zipfArrivals(t testing.TB, meanRate float64, seed int64) []traffic.Arrival {
	t.Helper()
	n := tb.forest.NumNodes()
	mult, err := traffic.HotspotRates(n, 1.5, 1, 32, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	arr := make([]traffic.Arrival, n)
	for u := range arr {
		if tb.forest.IsGateway(u) {
			continue
		}
		p, err := traffic.NewPoisson(meanRate * mult[u])
		if err != nil {
			t.Fatal(err)
		}
		arr[u] = p
	}
	return arr
}

// maxWeight is the testbed's max-weight epoch scheduler.
func (tb *testbed) maxWeight() Scheduler {
	return NewCentralizedScheduler("maxweight", tb.net.Channel, tb.links, (*sched.Builder).GreedyMaxWeight)
}

// TestMaxWeightBeatsStaticGreedyUnderZipfBacklog pins the queue-aware
// scheduler's reason to exist: under a skewed (Zipf hotspot) backlog beyond
// saturation, re-ranking links by backlog×rate each epoch must deliver at
// least the goodput of the same greedy engine locked to its static head-ID
// order. Both pay zero control cost, so the comparison isolates the
// ordering.
func TestMaxWeightBeatsStaticGreedyUnderZipfBacklog(t *testing.T) {
	tb := newReuseTestbed(t)
	tm := core.DefaultTiming()
	frame := tb.frameTime(t, tm)
	horizon := 600 * frame
	meanRate := 2.0 / frame.Seconds() // 2x static capacity: saturated
	run := func(s Scheduler, seed int64) float64 {
		res, err := Run(Config{
			Forest:         tb.forest,
			Links:          tb.links,
			Scheduler:      s,
			Timing:         tm,
			Arrivals:       tb.zipfArrivals(t, meanRate, DeriveSeed(seed, 77)),
			Horizon:        horizon,
			Seed:           seed,
			MaxService:     8,
			FramesPerEpoch: 16,
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		return res.GoodputPps
	}
	var mwTotal, greedyTotal float64
	for seed := int64(1); seed <= 3; seed++ {
		mw := run(tb.maxWeight(), seed)
		gr := run(tb.greedy(), seed)
		t.Logf("seed %d: maxweight %.1f pkt/s, static greedy %.1f pkt/s", seed, mw, gr)
		mwTotal += mw
		greedyTotal += gr
	}
	// Pin on the seed aggregate: per-seed noise can favor either, the mean
	// must not.
	if mwTotal < greedyTotal {
		t.Errorf("max-weight mean goodput %.1f below static greedy %.1f under Zipf backlog",
			mwTotal/3, greedyTotal/3)
	}
}

// TestFanZhangSchedulerRunsAndBeatsTDMA sanity-pins the approximation
// scheduler in the epoch driver: its class-partitioned schedules still beat
// the no-reuse TDMA frame under saturating uniform load (it trades slots for
// a guarantee, not all of them).
func TestFanZhangSchedulerRunsAndBeatsTDMA(t *testing.T) {
	tb := newReuseTestbed(t)
	tm := core.DefaultTiming()
	frame := tb.frameTime(t, tm)
	horizon := 400 * frame
	rate := 2.0 / frame.Seconds()
	run := func(s Scheduler) float64 {
		res, err := Run(Config{
			Forest:         tb.forest,
			Links:          tb.links,
			Scheduler:      s,
			Timing:         tm,
			Arrivals:       tb.cbrAt(t, rate),
			Horizon:        horizon,
			Seed:           5,
			MaxService:     8,
			FramesPerEpoch: 16,
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		return res.GoodputPps
	}
	fz := run(NewCentralizedScheduler("fanzhang", tb.net.Channel, tb.links, (*sched.Builder).ApproxFanZhang))
	tdma := run(NewTDMAScheduler(tb.links, 1, 1))
	t.Logf("fanzhang %.1f pkt/s, tdma %.1f pkt/s", fz, tdma)
	if fz <= tdma {
		t.Errorf("fanzhang goodput %.1f should beat TDMA %.1f under saturation", fz, tdma)
	}
}

// TestMaxWeightSchedulerRebinds checks the adaptive path: after a topology
// rebind the scheduler must build against the new link set without error.
func TestMaxWeightSchedulerRebinds(t *testing.T) {
	tb := newTestbed(t, 4, 4)
	s := tb.maxWeight()
	demands := make([]int, len(tb.links))
	for i := range demands {
		demands[i] = 1
	}
	if _, _, err := s.Build(demands, 0); err != nil {
		t.Fatal(err)
	}
	// Rebind to a strict subset of the links (as after a node failure).
	sub := tb.links[:len(tb.links)-2]
	if err := s.Rebind(Topology{Links: sub}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Build(make([]int, len(sub)), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Build(demands, 2); err == nil {
		t.Error("demand vector of the old link set should now fail")
	}
}
