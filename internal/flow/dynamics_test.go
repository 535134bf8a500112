package flow

// Tests for topology dynamics in the flow-level simulator. The headline
// saturation-style property lives in TestFlowChurnRecoveryVsStaticTDMA:
// schedulers that re-plan at epoch boundaries route around a failure burst
// and recover their goodput, while a static TDMA frame structure keeps
// serving dead routes and does not.

import (
	"math/rand"
	"reflect"
	"testing"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/dynam"
	"scream/internal/route"
	"scream/internal/topo"
)

// dynTestbed clones tb's network and builds a dynamics world over it. The
// returned testbed views the clone, so schedulers built from it reference
// the channel the world mutates.
func dynTestbed(t testing.TB, tb *testbed, cfg dynam.Config) (*testbed, *dynam.World) {
	t.Helper()
	net := tb.net.Clone()
	w, err := dynam.NewWorld(net, tb.forest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{net: net, forest: tb.forest, links: tb.links}, w
}

// burstVictims picks the count non-gateway depth-1 nodes with the largest
// subtrees — the most disruptive non-gateway failure burst the forest
// offers.
func burstVictims(f *route.Forest, count int) []int {
	children := make([][]int, f.NumNodes())
	for u := range children {
		if l, ok := f.EdgeOf(u); ok {
			children[l.To] = append(children[l.To], u)
		}
	}
	size := make([]int, f.NumNodes())
	// Subtree sizes by decreasing depth.
	maxD := 0
	for u := 0; u < f.NumNodes(); u++ {
		if f.Depth(u) > maxD {
			maxD = f.Depth(u)
		}
	}
	for d := maxD; d >= 0; d-- {
		for u := 0; u < f.NumNodes(); u++ {
			if f.Depth(u) != d {
				continue
			}
			size[u] = 1
			for _, c := range children[u] {
				size[u] += size[c]
			}
		}
	}
	var victims []int
	for len(victims) < count {
		best := -1
		for u := 0; u < f.NumNodes(); u++ {
			if f.IsGateway(u) || f.Depth(u) != 1 || size[u] == 0 {
				continue
			}
			if best < 0 || size[u] > size[best] {
				best = u
			}
		}
		if best < 0 {
			break
		}
		size[best] = 0
		victims = append(victims, best)
	}
	return victims
}

func runDynamic(t testing.TB, tb *testbed, w *dynam.World, s Scheduler, load float64, horizon des.Time, seed int64) *Result {
	t.Helper()
	tm := core.DefaultTiming()
	frame := tb.frameTime(t, tm)
	res, err := Run(Config{
		Forest:         tb.forest,
		Links:          tb.links,
		Scheduler:      s,
		Timing:         tm,
		Arrivals:       tb.cbrAt(t, load/frame.Seconds()),
		Horizon:        horizon,
		Seed:           seed,
		MaxService:     8,
		FramesPerEpoch: 8,
		Dynamics:       w,
		RepairCost:     tm.RepairCost(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFlowChurnRecoveryVsStaticTDMA pins the headline property: after a
// permanent burst of subtree-root failures, the adaptive scheduler re-routes
// the orphaned subtrees and recovers its goodput, while the static TDMA
// frame keeps serving dead parents and never does.
func TestFlowChurnRecoveryVsStaticTDMA(t *testing.T) {
	// A small single-gateway mesh, where TDMA's capacity is close to the
	// greedy frame (little spatial reuse to forfeit): the load must sit
	// below the *TDMA* capacity, or the static baseline is saturated before
	// the burst and its goodput cannot visibly drop. The burst kills the
	// gateway-adjacent relay carrying the largest subtree — half the mesh
	// reroutes through the surviving relay, or stalls forever under the
	// static frame. It comes late so the cumulative pre-event baseline is
	// near steady state.
	base := newTestbed(t, 4, 4)
	tm := core.DefaultTiming()
	frame := base.frameTime(t, tm)
	const load = 0.3
	horizon := 240 * frame
	burstAt := 80 * frame
	victims := burstVictims(base.forest, 1)
	if len(victims) != 1 {
		t.Fatal("no burst victim found")
	}
	script := []dynam.Event{{At: burstAt, Kind: dynam.Fail, Node: victims[0]}}

	tbA, wA := dynTestbed(t, base, dynam.Config{Script: script})
	adaptive := runDynamic(t, tbA, wA, tbA.greedy(), load, horizon, 42)

	tbS, wS := dynTestbed(t, base, dynam.Config{Script: script})
	static := runDynamic(t, tbS, wS, NewTDMAScheduler(tbS.links, 1, 1), load, horizon, 42)

	if adaptive.FailEvents != 1 || static.FailEvents != 1 {
		t.Fatalf("burst not applied: %d/%d fail events", adaptive.FailEvents, static.FailEvents)
	}
	if !adaptive.Recovered {
		t.Fatalf("adaptive scheduler never recovered: baseline %.1f pps, delivered %d",
			adaptive.PreEventGoodputPps, adaptive.Delivered)
	}
	if static.Recovered {
		t.Fatalf("static TDMA claims recovery (%.3fs) despite dead routes", static.RecoveryTime.Seconds())
	}
	if adaptive.GoodputPps <= static.GoodputPps {
		t.Fatalf("adaptive goodput %.1f pps not above static %.1f pps",
			adaptive.GoodputPps, static.GoodputPps)
	}
	// The stalled subtrees show up as backlog the static schedule cannot
	// drain.
	if static.FinalBacklog <= adaptive.FinalBacklog {
		t.Fatalf("static final backlog %d not above adaptive %d",
			static.FinalBacklog, adaptive.FinalBacklog)
	}
	if adaptive.Repairs == 0 {
		t.Fatal("no repair recorded for the burst")
	}
	if adaptive.RepairTime <= 0 {
		t.Fatal("repair cost not charged")
	}
}

// TestFlowChurnConservation: with churn, every offered packet is delivered,
// dropped at a full queue, lost on a dead node, or still queued.
func TestFlowChurnConservation(t *testing.T) {
	tb := newTestbed(t, 4, 4)
	tm := core.DefaultTiming()
	frame := tb.frameTime(t, tm)
	tbD, w := dynTestbed(t, tb, dynam.Config{
		FailRate:     6,
		MeanDowntime: 30 * des.Millisecond,
		Horizon:      100 * frame,
		Seed:         5,
	})
	res := runDynamic(t, tbD, w, tbD.greedy(), 0.6, 100*frame, 9)
	if res.FailEvents == 0 {
		t.Fatal("churn generated no failures; raise the rate")
	}
	if res.LostOnFailure == 0 {
		t.Fatal("no packets lost to failures despite dead queues")
	}
	if got := res.Delivered + res.Dropped + res.LostOnFailure + res.FinalBacklog; got != res.Offered {
		t.Fatalf("conservation violated: delivered %d + dropped %d + lost %d + backlog %d != offered %d",
			res.Delivered, res.Dropped, res.LostOnFailure, res.FinalBacklog, res.Offered)
	}
	if res.Repairs == 0 {
		t.Fatal("no topology batches applied")
	}
}

// TestFlowGatewayOutage: killing a gateway triggers the rebuild fallback and
// traffic keeps flowing through the survivors.
func TestFlowGatewayOutage(t *testing.T) {
	tb := newReuseTestbed(t)
	tm := core.DefaultTiming()
	frame := tb.frameTime(t, tm)
	gw := tb.forest.Gateways()[0]
	tbD, w := dynTestbed(t, tb, dynam.Config{Script: []dynam.Event{
		{At: 30 * frame, Kind: dynam.Fail, Node: gw},
	}})
	res := runDynamic(t, tbD, w, tbD.greedy(), 0.4, 120*frame, 3)
	if res.Rebuilds == 0 {
		t.Fatal("gateway outage did not force a rebuild")
	}
	if !res.Recovered {
		t.Fatalf("network never recovered from a single gateway outage (baseline %.1f pps)", res.PreEventGoodputPps)
	}
}

// TestFlowMobilityRun: random-waypoint mobility reroutes the forest while
// traffic flows; conservation and determinism-relevant metrics stay sane.
func TestFlowMobilityRun(t *testing.T) {
	tb := newTestbed(t, 4, 4)
	tm := core.DefaultTiming()
	frame := tb.frameTime(t, tm)
	horizon := 80 * frame
	tbD, w := dynTestbed(t, tb, dynam.Config{
		Mobility:     dynam.RandomWaypoint{SpeedMps: 8, Pause: 10 * des.Millisecond},
		MoveInterval: 5 * des.Millisecond,
		Horizon:      horizon,
		Seed:         11,
	})
	res := runDynamic(t, tbD, w, tbD.greedy(), 0.5, horizon, 4)
	if res.MoveEvents == 0 {
		t.Fatal("mobility generated no move events")
	}
	if res.Repairs == 0 {
		t.Fatal("moves never triggered a repair batch")
	}
	if got := res.Delivered + res.Dropped + res.LostOnFailure + res.FinalBacklog; got != res.Offered {
		t.Fatalf("conservation violated under mobility: %d != offered %d", got, res.Offered)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered under mobility")
	}
}

// TestFlowDynamicsDeterministic: identical configurations produce identical
// results, event for event — the property the churn figure's worker
// determinism rests on.
func TestFlowDynamicsDeterministic(t *testing.T) {
	tb := newTestbed(t, 4, 4)
	tm := core.DefaultTiming()
	frame := tb.frameTime(t, tm)
	cfg := dynam.Config{
		FailRate:     4,
		MeanDowntime: 40 * des.Millisecond,
		Mobility:     dynam.Drift{SpeedMps: 5},
		MoveInterval: 8 * des.Millisecond,
		Horizon:      60 * frame,
		Seed:         21,
	}
	run := func() *Result {
		tbD, w := dynTestbed(t, tb, cfg)
		return runDynamic(t, tbD, w, tbD.greedy(), 0.7, 60*frame, 13)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical dynamic runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFlowControlUnavailable: when failures disconnect the alive sensitivity
// graph, the distributed scheduler keeps its previous plan (no error) and
// resumes re-planning once connectivity returns.
func TestFlowControlUnavailable(t *testing.T) {
	net, err := topo.NewLine(3, 30, topo.DefaultParams(), 1.05)
	if err != nil {
		t.Fatal(err)
	}
	f, err := route.BuildForest(net.Comm, []int{0}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tb := &testbed{net: net, forest: f, links: f.Links()}
	tm := core.DefaultTiming()
	frame := tb.frameTime(t, tm)
	horizon := 200 * frame
	tbD, w := dynTestbed(t, tb, dynam.Config{Script: []dynam.Event{
		{At: 40 * frame, Kind: dynam.Fail, Node: 1}, // severs node 2 from the gateway
		{At: 120 * frame, Kind: dynam.Recover, Node: 1},
	}})
	fdd, err := NewProtocolScheduler(SchedulerEnv{
		Channel: tbD.net.Channel, Sens: tbD.net.Sens, Links: tbD.links,
		Timing: tm, Seed: 3,
	}, core.FDD)
	if err != nil {
		t.Fatal(err)
	}
	res := runDynamic(t, tbD, w, fdd, 0.3, horizon, 17)
	if res.FailEvents != 1 || res.RecoverEvents != 1 {
		t.Fatalf("events not applied: %d fail, %d recover", res.FailEvents, res.RecoverEvents)
	}
	if res.ControlDownEpochs == 0 {
		t.Fatal("control-unavailable fallback never engaged: no epochs ran on the last schedule")
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if got := res.Delivered + res.Dropped + res.LostOnFailure + res.FinalBacklog; got != res.Offered {
		t.Fatalf("conservation violated: %d != offered %d", got, res.Offered)
	}
}
