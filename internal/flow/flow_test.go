package flow

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/phys"
	"scream/internal/route"
	"scream/internal/topo"
	"scream/internal/traffic"
)

// testbed is a small planned mesh with a single gateway at node 0.
type testbed struct {
	net    *topo.Network
	forest *route.Forest
	links  []phys.Link
}

func newTestbed(t testing.TB, rows, cols int) *testbed {
	t.Helper()
	net, err := topo.NewGrid(topo.GridConfig{
		Rows: rows, Cols: cols, Step: 25,
		Params: topo.DefaultParams(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := route.BuildForest(net.Comm, []int{0}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{net: net, forest: f, links: f.Links()}
}

// newReuseTestbed builds the paper's low-density planned scenario (8x8 grid,
// 4 dBm homogeneous power, quadrant gateways), where the physical model
// admits real spatial reuse — small minimal-power grids admit none, which
// makes them useless for reuse-sensitive assertions.
func newReuseTestbed(t testing.TB) *testbed {
	t.Helper()
	net, err := topo.NewGrid(topo.GridConfig{
		Rows: 8, Cols: 8, Step: 36,
		TxPowerMW: phys.DBm(4).MilliWatts(),
		Params:    topo.DefaultParams(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gws, err := topo.QuadrantGateways(net)
	if err != nil {
		t.Fatal(err)
	}
	f, err := route.BuildForest(net.Comm, gws, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{net: net, forest: f, links: f.Links()}
}

// frameTime returns the capacity reference of the load sweeps (see
// FrameTime): a per-node CBR rate of x/frameTime offers x times the static
// schedule's sustainable load.
func (tb *testbed) frameTime(t testing.TB, tm core.Timing) des.Time {
	t.Helper()
	frame, err := FrameTime(tb.net.Channel, tb.forest, tb.links, tm)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// cbrAt attaches a CBR source of the given per-node rate to every
// non-gateway node.
func (tb *testbed) cbrAt(t testing.TB, rate float64) []traffic.Arrival {
	t.Helper()
	arr := make([]traffic.Arrival, tb.forest.NumNodes())
	for u := range arr {
		if tb.forest.IsGateway(u) {
			continue
		}
		c, err := traffic.NewCBR(rate)
		if err != nil {
			t.Fatal(err)
		}
		arr[u] = c
	}
	return arr
}

func (tb *testbed) greedy() Scheduler {
	return NewGreedyScheduler(tb.net.Channel, 1, 1, tb.links)
}

func runAtLoad(t testing.TB, tb *testbed, s Scheduler, load float64, horizon des.Time, seed int64) *Result {
	t.Helper()
	tm := core.DefaultTiming()
	frame := tb.frameTime(t, tm)
	res, err := Run(Config{
		Forest:     tb.forest,
		Links:      tb.links,
		Scheduler:  s,
		Timing:     tm,
		Arrivals:   tb.cbrAt(t, load/frame.Seconds()),
		Horizon:    horizon,
		Seed:       seed,
		MaxService: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFlowSaturation is the subsystem's headline property: delivered goodput
// rises with offered load until the schedule's capacity, then plateaus,
// while p95 delay and backlog stay modest below saturation and diverge
// beyond it — queues stable below, growing above.
func TestFlowSaturation(t *testing.T) {
	tb := newTestbed(t, 3, 3)
	horizon := 400 * des.Millisecond
	low := runAtLoad(t, tb, tb.greedy(), 0.5, horizon, 42)
	over := runAtLoad(t, tb, tb.greedy(), 2.0, horizon, 42)
	deep := runAtLoad(t, tb, tb.greedy(), 4.0, horizon, 42)

	// Below saturation the system keeps up: nearly everything offered is
	// delivered and the residual backlog is a few in-flight packets.
	if low.Delivered == 0 || float64(low.Delivered) < 0.9*float64(low.Offered) {
		t.Fatalf("0.5x load: delivered %d of %d offered", low.Delivered, low.Offered)
	}
	if low.FinalBacklog > 3*len(tb.links) {
		t.Errorf("0.5x load: final backlog %d; queues should be stable", low.FinalBacklog)
	}

	// Above saturation goodput plateaus at capacity: pushing 2x vs 4x
	// offered load changes delivered goodput by little...
	if over.GoodputPps == 0 {
		t.Fatal("2x load delivered nothing")
	}
	ratio := deep.GoodputPps / over.GoodputPps
	if ratio > 1.15 || ratio < 0.85 {
		t.Errorf("goodput should plateau: 2x -> %.0f pps, 4x -> %.0f pps (ratio %.2f)", over.GoodputPps, deep.GoodputPps, ratio)
	}
	// ...and is well below what was offered.
	if float64(over.Delivered) > 0.8*float64(over.Offered) {
		t.Errorf("2x load: delivered %d of %d; should be capacity-limited", over.Delivered, over.Offered)
	}

	// Beyond saturation the queues grow without bound and delay diverges.
	if over.FinalBacklog < 5*low.FinalBacklog+10 {
		t.Errorf("2x load: final backlog %d vs %d at 0.5x; should grow", over.FinalBacklog, low.FinalBacklog)
	}
	if deep.FinalBacklog < over.FinalBacklog {
		t.Errorf("4x backlog %d < 2x backlog %d", deep.FinalBacklog, over.FinalBacklog)
	}
	if over.DelayP95 < 3*low.DelayP95 {
		t.Errorf("p95 delay should diverge beyond saturation: 0.5x %v vs 2x %v", low.DelayP95, over.DelayP95)
	}
	if low.DelayP50 > low.DelayP95 {
		t.Errorf("p50 %v > p95 %v", low.DelayP50, low.DelayP95)
	}
}

// TestFlowConservation checks packet accounting: every offered packet is
// delivered, dropped, or still queued at the horizon.
func TestFlowConservation(t *testing.T) {
	tb := newTestbed(t, 3, 3)
	for _, load := range []float64{0.5, 1.5} {
		res := runAtLoad(t, tb, tb.greedy(), load, 300*des.Millisecond, 7)
		if got := res.Delivered + res.Dropped + res.FinalBacklog; got != res.Offered {
			t.Errorf("load %.1f: delivered %d + dropped %d + backlog %d = %d != offered %d",
				load, res.Delivered, res.Dropped, res.FinalBacklog, got, res.Offered)
		}
		if res.Dropped != 0 {
			t.Errorf("load %.1f: %d drops with unbounded queues", load, res.Dropped)
		}
		if res.PeakBacklog < res.FinalBacklog {
			t.Errorf("load %.1f: peak %d < final %d", load, res.PeakBacklog, res.FinalBacklog)
		}
		if res.Elapsed != 300*des.Millisecond {
			t.Errorf("load %.1f: elapsed %v != horizon", load, res.Elapsed)
		}
	}
}

// TestFlowDeterminism: identical configs produce identical results, the
// property the experiment engine's worker fan-out relies on.
func TestFlowDeterminism(t *testing.T) {
	tb := newTestbed(t, 3, 3)
	a := runAtLoad(t, tb, tb.greedy(), 1.2, 200*des.Millisecond, 99)
	b := runAtLoad(t, tb, tb.greedy(), 1.2, 200*des.Millisecond, 99)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// TestFlowMaxQueue: bounded queues drop the overload instead of growing.
func TestFlowMaxQueue(t *testing.T) {
	tb := newTestbed(t, 3, 3)
	tm := core.DefaultTiming()
	frame := tb.frameTime(t, tm)
	res, err := Run(Config{
		Forest:    tb.forest,
		Links:     tb.links,
		Scheduler: tb.greedy(),
		Timing:    tm,
		Arrivals:  tb.cbrAt(t, 3/frame.Seconds()),
		Horizon:   300 * des.Millisecond,
		Seed:      5,
		MaxQueue:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Error("3x overload with MaxQueue=4 should drop")
	}
	if res.PeakBacklog > 4*len(tb.links) {
		t.Errorf("peak backlog %d exceeds %d queues x cap 4", res.PeakBacklog, len(tb.links))
	}
	if got := res.Delivered + res.Dropped + res.FinalBacklog; got != res.Offered {
		t.Errorf("conservation broken under drops: %d != %d", got, res.Offered)
	}
}

// TestFlowProtocolSchedulers runs the real distributed protocols as epoch
// schedulers: they must deliver traffic while paying nonzero control time.
func TestFlowProtocolSchedulers(t *testing.T) {
	tb := newTestbed(t, 3, 3)
	tm := core.DefaultTiming()
	frame := tb.frameTime(t, tm)
	for _, tc := range []struct {
		name    string
		variant core.Variant
		p       float64
	}{
		{"FDD", core.FDD, 0},
		{"PDD", core.PDD, 0.6},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewProtocolScheduler(SchedulerEnv{
				Channel: tb.net.Channel,
				Sens:    tb.net.Sens,
				Links:   tb.links,
				Timing:  tm,
				P:       tc.p,
				Seed:    17,
			}, tc.variant)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{
				Forest:    tb.forest,
				Links:     tb.links,
				Scheduler: s,
				Timing:    tm,
				Arrivals:  tb.cbrAt(t, 0.3/frame.Seconds()),
				Horizon:   500 * des.Millisecond,
				Seed:      17,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivered == 0 {
				t.Fatal("distributed scheduler delivered nothing")
			}
			if res.ControlTime == 0 {
				t.Error("distributed re-scheduling must cost simulated time")
			}
			if res.ControlFraction <= 0 || res.ControlFraction >= 1 {
				t.Errorf("control fraction %v out of (0,1)", res.ControlFraction)
			}
			if res.Epochs < 2 {
				t.Errorf("only %d epochs in %v; driver should re-schedule repeatedly", res.Epochs, res.Elapsed)
			}
			if got := res.Delivered + res.Dropped + res.FinalBacklog; got != res.Offered {
				t.Errorf("conservation: %d != %d", got, res.Offered)
			}
		})
	}
}

// TestProtocolSchedulerNeedsDenseEngine: the distributed protocols simulate
// real reception, so a conservative engine is an error whether the scheduler
// comes from the registry or the constructor; the dense channel is not.
func TestProtocolSchedulerNeedsDenseEngine(t *testing.T) {
	tb := newTestbed(t, 3, 3)
	idx, err := tb.net.SpatialEngine(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	env := SchedulerEnv{Channel: tb.net.Channel, Engine: idx, Sens: tb.net.Sens, Links: tb.links, P: 0.5}
	for _, name := range []string{"fdd", "pdd"} {
		def, err := SchedulerDefByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("scheduler %q requires the dense interference engine", name)
		if _, err := def.New(env); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s on the spatial engine: error %v, want %q", name, err, want)
		}
	}
	env.Engine = tb.net.Channel
	if _, err := NewProtocolScheduler(env, core.FDD); err != nil {
		t.Errorf("fdd on the dense channel: %v", err)
	}
}

// TestSchedulerRegistryLookup: the registry hands out copies, and a hit by
// name allocates nothing (scenario validation resolves the scheduler on every
// run); only a miss builds the valid-name list.
func TestSchedulerRegistryLookup(t *testing.T) {
	defs := SchedulerDefs()
	defs[0].Name = "clobbered"
	if d, err := SchedulerDefByName("greedy"); err != nil || d.Name != "greedy" {
		t.Fatalf("mutating SchedulerDefs() changed the registry: %+v, %v", d.SchedulerInfo, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := SchedulerDefByName("tdma"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SchedulerDefByName allocates %v times per hit, want 0", allocs)
	}
}

// TestFlowFramesPerEpoch: replaying the schedule amortizes control cost —
// more frames per epoch must cut the control fraction and raise goodput for
// a distributed scheduler.
func TestFlowFramesPerEpoch(t *testing.T) {
	tb := newTestbed(t, 3, 3)
	tm := core.DefaultTiming()
	frame := tb.frameTime(t, tm)
	run := func(frames int) *Result {
		s, err := NewProtocolScheduler(SchedulerEnv{
			Channel: tb.net.Channel,
			Sens:    tb.net.Sens,
			Links:   tb.links,
			Timing:  tm,
			Seed:    23,
		}, core.FDD)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Forest:         tb.forest,
			Links:          tb.links,
			Scheduler:      s,
			Timing:         tm,
			Arrivals:       tb.cbrAt(t, 0.5/frame.Seconds()),
			Horizon:        time600ms,
			Seed:           23,
			MaxService:     8,
			FramesPerEpoch: frames,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	many := run(16)
	if many.ControlFraction >= one.ControlFraction {
		t.Errorf("control fraction should drop with replays: 1 frame %.3f vs 16 frames %.3f",
			one.ControlFraction, many.ControlFraction)
	}
	if many.Delivered <= one.Delivered {
		t.Errorf("amortized control should deliver more: %d vs %d", many.Delivered, one.Delivered)
	}
}

const time600ms = 600 * des.Millisecond

// TestFlowGreedyBeatsTDMA: spatial reuse must show up as saturation goodput
// in a scenario that admits it.
func TestFlowGreedyBeatsTDMA(t *testing.T) {
	tb := newReuseTestbed(t)
	horizon := 300 * des.Millisecond
	greedy := runAtLoad(t, tb, tb.greedy(), 3, horizon, 3)
	tdma := runAtLoad(t, tb, NewTDMAScheduler(tb.links, 1, 1), 3, horizon, 3)
	if greedy.GoodputPps < 1.2*tdma.GoodputPps {
		t.Errorf("greedy %.0f pps vs TDMA %.0f pps at saturation; spatial reuse should win clearly", greedy.GoodputPps, tdma.GoodputPps)
	}
}

// TestTDMAScheduler checks the baseline's frame structure directly: at one
// channel every position is a singleton slot with no recorded channel
// assignment, whatever the radio budget.
func TestTDMAScheduler(t *testing.T) {
	tb := newTestbed(t, 3, 3)
	s := NewTDMAScheduler(tb.links, 1, 2)
	if s.Name != "tdma" {
		t.Errorf("single-channel TDMA named %q, want %q", s.Name, "tdma")
	}
	demands := make([]int, len(tb.links))
	total := 0
	for i := range demands {
		demands[i] = i % 3 // some zero
		total += demands[i]
	}
	sc, ctrl, err := s.Build(demands, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl != 0 {
		t.Errorf("TDMA control cost %v, want 0", ctrl)
	}
	if sc.Length() != total {
		t.Errorf("TDMA length %d, want serialized %d", sc.Length(), total)
	}
	for i := 0; i < sc.Length(); i++ {
		if len(sc.Slot(i)) != 1 {
			t.Fatalf("TDMA slot %d has %d links, want 1", i, len(sc.Slot(i)))
		}
		if sc.SlotChannels(i) != nil {
			t.Fatalf("TDMA slot %d records channels %v, want none", i, sc.SlotChannels(i))
		}
	}
	if err := sc.Verify(tb.net.Channel, tb.links, demands); err != nil {
		t.Errorf("TDMA schedule fails verification: %v", err)
	}
	if _, _, err := s.Build(demands[:2], 0); err == nil {
		t.Error("mismatched demand vector should fail")
	}
}

// TestFlowConfigValidation covers the config error paths.
func TestFlowConfigValidation(t *testing.T) {
	tb := newTestbed(t, 3, 3)
	tm := core.DefaultTiming()
	good := func() Config {
		return Config{
			Forest:    tb.forest,
			Links:     tb.links,
			Scheduler: tb.greedy(),
			Timing:    tm,
			Arrivals:  make([]traffic.Arrival, tb.forest.NumNodes()),
			Horizon:   des.Millisecond,
			Seed:      1,
		}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil forest", func(c *Config) { c.Forest = nil }},
		{"wrong arrivals len", func(c *Config) { c.Arrivals = c.Arrivals[:2] }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"no scheduler", func(c *Config) { c.Scheduler = Scheduler{} }},
		{"non-forest link", func(c *Config) {
			c.Links = append([]phys.Link(nil), c.Links...)
			c.Links[0] = phys.Link{From: c.Links[0].From, To: c.Links[0].From} // self edge
		}},
		{"arrival on gateway", func(c *Config) {
			cbr, _ := traffic.NewCBR(10)
			c.Arrivals[0] = cbr // node 0 is the gateway
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := good()
			tc.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
	// The unmutated config must run.
	if _, err := Run(good()); err != nil {
		t.Errorf("good config failed: %v", err)
	}
}

// TestFlowIdlesWhenSilent: no arrivals means the run idles to the horizon.
func TestFlowIdlesWhenSilent(t *testing.T) {
	tb := newTestbed(t, 3, 3)
	res, err := Run(Config{
		Forest:    tb.forest,
		Links:     tb.links,
		Scheduler: tb.greedy(),
		Arrivals:  make([]traffic.Arrival, tb.forest.NumNodes()),
		Horizon:   10 * des.Millisecond,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 0 || res.Delivered != 0 || res.Epochs != 0 {
		t.Errorf("silent run did work: %+v", res)
	}
	if res.IdleTime != 10*des.Millisecond {
		t.Errorf("idle time %v, want full horizon", res.IdleTime)
	}
}

func TestFifo(t *testing.T) {
	var (
		bp pool
		q  queue
	)
	for i := 0; i < 500; i++ {
		q.push(&bp, packet{created: des.Time(i)})
	}
	for i := 0; i < 500; i++ {
		if q.len() != 500-i {
			t.Fatalf("len = %d, want %d", q.len(), 500-i)
		}
		if p := q.pop(&bp); p.created != des.Time(i) {
			t.Fatalf("pop %d: got %v, want FIFO order", i, p.created)
		}
	}
	if q.len() != 0 {
		t.Fatalf("final len = %d", q.len())
	}
}
