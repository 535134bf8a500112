package dynam

import (
	"math"
	"math/rand"
	"testing"

	"scream/internal/des"
	"scream/internal/geom"
	"scream/internal/route"
	"scream/internal/topo"
)

func testNetwork(t testing.TB) (*topo.Network, *route.Forest) {
	t.Helper()
	net, err := topo.NewGrid(topo.GridConfig{Rows: 4, Cols: 4, Step: 35, Params: topo.DefaultParams()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := route.BuildForest(net.Comm, []int{0, 15}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return net, f
}

func churnCfg(seed int64) Config {
	return Config{
		FailRate:     2.0,
		MeanDowntime: 200 * des.Millisecond,
		Horizon:      2 * des.Second,
		Seed:         seed,
	}
}

// TestTimelineDeterministic: identical seeds produce identical timelines;
// different seeds do not.
func TestTimelineDeterministic(t *testing.T) {
	net, f := testNetwork(t)
	a, err := NewWorld(net.Clone(), f, churnCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorld(net.Clone(), f, churnCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWorld(net.Clone(), f, churnCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.timeline) == 0 {
		t.Fatal("no churn events generated")
	}
	if len(a.timeline) != len(b.timeline) {
		t.Fatalf("same seed, different timeline lengths: %d vs %d", len(a.timeline), len(b.timeline))
	}
	for i := range a.timeline {
		if a.timeline[i] != b.timeline[i] {
			t.Fatalf("same seed, event %d differs: %+v vs %+v", i, a.timeline[i], b.timeline[i])
		}
	}
	diff := len(a.timeline) != len(c.timeline)
	for i := 0; !diff && i < len(a.timeline); i++ {
		diff = a.timeline[i] != c.timeline[i]
	}
	if !diff {
		t.Fatal("different seeds produced identical timelines")
	}
}

// TestChurnAlternates: per node, events alternate fail/recover in time order
// and respect the gateway exclusion.
func TestChurnAlternates(t *testing.T) {
	net, f := testNetwork(t)
	w, err := NewWorld(net.Clone(), f, churnCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	last := make(map[int]Kind)
	for _, e := range w.timeline {
		if e.Node == 0 || e.Node == 15 {
			t.Fatalf("gateway %d scheduled for churn without FailGateways", e.Node)
		}
		prev, ok := last[e.Node]
		if !ok && e.Kind != Fail {
			t.Fatalf("node %d starts with %v", e.Node, e.Kind)
		}
		if ok && prev == e.Kind {
			t.Fatalf("node %d has consecutive %v events", e.Node, e.Kind)
		}
		last[e.Node] = e.Kind
	}
}

// TestMobilityStaysInRegion: waypoint and drift trajectories never leave the
// deployment region and actually move.
func TestMobilityStaysInRegion(t *testing.T) {
	region := geom.Square(500)
	samples := make([]des.Time, 200)
	for i := range samples {
		samples[i] = des.Time(i+1) * 50 * des.Millisecond
	}
	start := geom.Point{X: 100, Y: 400}
	for name, m := range map[string]Mobility{
		"waypoint": RandomWaypoint{SpeedMps: 20, Pause: 100 * des.Millisecond},
		"drift":    Drift{SpeedMps: 20},
	} {
		rng := rand.New(rand.NewSource(5))
		traj := m.Trajectory(start, region, samples, rng)
		moved := false
		for i, p := range traj {
			if p.X < region.MinX-1e-9 || p.X > region.MaxX+1e-9 || p.Y < region.MinY-1e-9 || p.Y > region.MaxY+1e-9 {
				t.Fatalf("%s: sample %d at %v leaves region", name, i, p)
			}
			if p != start {
				moved = true
			}
		}
		if !moved {
			t.Fatalf("%s: node never moved", name)
		}
	}
}

// TestDriftReflects drives a drift trajectory long enough to hit the walls
// and checks the fold stays continuous (no jumps beyond speed*dt).
func TestDriftReflects(t *testing.T) {
	region := geom.Square(100)
	samples := make([]des.Time, 400)
	for i := range samples {
		samples[i] = des.Time(i+1) * 100 * des.Millisecond
	}
	rng := rand.New(rand.NewSource(2))
	traj := Drift{SpeedMps: 30}.Trajectory(geom.Point{X: 50, Y: 50}, region, samples, rng)
	prev := geom.Point{X: 50, Y: 50}
	maxStep := 30*0.1 + 1e-6
	for i, p := range traj {
		if d := p.Dist(prev); d > maxStep {
			t.Fatalf("sample %d jumps %.3f m (max %.3f)", i, d, maxStep)
		}
		prev = p
	}
}

// TestWorldMatchesFreshBuild applies a scripted mix of events through the
// world and asserts the resulting channel matrix is bit-identical to a
// freshly built network, and the forest bit-identical to the canonical full
// rebuild over the refreshed graphs.
func TestWorldMatchesFreshBuild(t *testing.T) {
	net, f := testNetwork(t)
	script := []Event{
		{At: 10, Kind: Fail, Node: 5},
		{At: 20, Kind: Move, Node: 9, Pos: geom.Point{X: 10, Y: 80}},
		{At: 30, Kind: Fail, Node: 6},
		{At: 40, Kind: Recover, Node: 5},
		{At: 50, Kind: Move, Node: 3, Pos: geom.Point{X: 60, Y: 10}},
		{At: 60, Kind: Fail, Node: 0}, // gateway outage
		{At: 70, Kind: Recover, Node: 0},
		{At: 75, Kind: Recover, Node: 6},
	}
	w, err := NewWorld(net.Clone(), f, Config{Script: script})
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []des.Time{15, 35, 45, 55, 65, 80} {
		ch, err := w.AdvanceTo(stop)
		if err != nil {
			t.Fatal(err)
		}
		if ch == nil {
			t.Fatalf("no change at %v", stop)
		}
		// Channel must match a network built from scratch at current state.
		ref := w.net.Clone()
		ref.RefreshGraphs()
		for u := 0; u < net.NumNodes(); u++ {
			for v := 0; v < net.NumNodes(); v++ {
				got := w.net.Channel.RxPowerMW(u, v)
				want := ref.Channel.RxPowerMW(u, v)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("t=%v: channel(%d,%d) drifted", stop, u, v)
				}
			}
		}
		// Forest must match the canonical rebuild.
		want, err := route.BuildForestPartial(w.net.Comm, w.AliveGateways(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < net.NumNodes(); u++ {
			if parentOf(w.Forest(), u) != parentOf(want, u) || w.Forest().Depth(u) != want.Depth(u) {
				t.Fatalf("t=%v: forest differs from rebuild at node %d", stop, u)
			}
		}
	}
	if _, ok := w.NextEventAt(); ok {
		t.Fatal("events left unapplied after final advance")
	}
	// All nodes recovered: the forest must be whole again.
	if w.Forest().NumDetached() != 0 {
		t.Fatalf("%d nodes still detached after full recovery", w.Forest().NumDetached())
	}
}

// parentOf returns u's parent in f, or -1 for gateways and detached nodes.
func parentOf(f *route.Forest, u int) int {
	if l, ok := f.EdgeOf(u); ok {
		return l.To
	}
	return -1
}

// gatewayOf returns the root of u's tree in f (u itself when u is a gateway
// or detached).
func gatewayOf(f *route.Forest, u int) int {
	for p := parentOf(f, u); p >= 0; p = parentOf(f, u) {
		u = p
	}
	return u
}

// TestWorldGatewayOutage: killing a gateway reroutes its tree to the
// survivor (rebuild fallback), and links never reference dead nodes.
func TestWorldGatewayOutage(t *testing.T) {
	net, f := testNetwork(t)
	w, err := NewWorld(net.Clone(), f, Config{Script: []Event{{At: 5, Kind: Fail, Node: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := w.AdvanceTo(10)
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Repair.Rebuilt {
		t.Fatal("gateway outage did not trigger the rebuild fallback")
	}
	if got := w.AliveGateways(); len(got) != 1 || got[0] != 15 {
		t.Fatalf("alive gateways = %v, want [15]", got)
	}
	for u := 1; u < 16; u++ {
		if gw := gatewayOf(w.Forest(), u); w.Forest().Depth(u) >= 0 && gw != 15 {
			t.Fatalf("node %d routes to gateway %d after outage", u, gw)
		}
	}
	for _, l := range w.Links() {
		if !w.IsAlive(l.From) || !w.IsAlive(l.To) {
			t.Fatalf("link %v references a dead node", l)
		}
	}
}

// TestWorldAdvanceBatching: advancing in two different step patterns over
// the same timeline yields identical final topology state.
func TestWorldAdvanceBatching(t *testing.T) {
	net, f := testNetwork(t)
	cfg := Config{FailRate: 3, MeanDowntime: 150 * des.Millisecond, Horizon: des.Second, Seed: 12,
		Mobility: RandomWaypoint{SpeedMps: 15, Pause: 50 * des.Millisecond}, MoveInterval: 40 * des.Millisecond}
	wa, err := NewWorld(net.Clone(), f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewWorld(net.Clone(), f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for t0 := 30 * des.Millisecond; ; t0 += 30 * des.Millisecond {
		if t0 > des.Second {
			t0 = des.Second
		}
		if _, err := wa.AdvanceTo(t0); err != nil {
			t.Fatal(err)
		}
		if t0 == des.Second {
			break
		}
	}
	if _, err := wb.AdvanceTo(des.Second); err != nil { // one big batch
		t.Fatal(err)
	}
	for u := 0; u < 16; u++ {
		if wa.IsAlive(u) != wb.IsAlive(u) {
			t.Fatalf("aliveness of %d differs between step patterns", u)
		}
		if wa.net.Nodes[u].Pos != wb.net.Nodes[u].Pos {
			t.Fatalf("position of %d differs between step patterns", u)
		}
		for v := 0; v < 16; v++ {
			if math.Float64bits(wa.net.Channel.RxPowerMW(u, v)) != math.Float64bits(wb.net.Channel.RxPowerMW(u, v)) {
				t.Fatalf("channel(%d,%d) differs between step patterns", u, v)
			}
		}
	}
	// Forests may legitimately differ between batching patterns only through
	// tie-break history; with canonical (nil-rng) repair they must not.
	for u := 0; u < 16; u++ {
		if parentOf(wa.Forest(), u) != parentOf(wb.Forest(), u) {
			t.Fatalf("forest parent of %d differs between step patterns", u)
		}
	}
}
