package dynam

// The streamed timeline against the generate-then-sort timeline it
// replaces: referenceTimeline below is that path, kept verbatim as a
// test-only reference (every sample time appended, each trajectory sampled
// as a whole, the events of all nodes sorted once).

import (
	"fmt"
	"math"
	"math/rand"
	deep "reflect"
	"testing"

	"scream/internal/des"
	"scream/internal/geom"
	"scream/internal/rng"
	"scream/internal/route"
	"scream/internal/topo"
)

// referenceTimeline generates cfg's whole timeline for net, with forest's
// gateways, and sorts it.
func referenceTimeline(net *topo.Network, forest *route.Forest, cfg Config) []Event {
	isGW := make([]bool, net.NumNodes())
	for _, g := range forest.Gateways() {
		isGW[g] = true
	}
	var ev []Event
	for u := 0; u < net.NumNodes(); u++ {
		if cfg.FailRate > 0 && (cfg.FailGateways || !isGW[u]) {
			ev = referenceChurn(cfg, u, ev)
		}
		if cfg.Mobility != nil && !isGW[u] {
			ev = referenceMoves(cfg, u, net.Nodes[u].Pos, net.Region, ev)
		}
	}
	sortEvents(ev)
	return ev
}

// referenceChurn draws node u's alternating up/down process.
func referenceChurn(cfg Config, u int, out []Event) []Event {
	rng := rng.New(deriveSeed(cfg.Seed, int64(2*u)))
	t := des.Time(0)
	for {
		up := des.FromSeconds(rng.ExpFloat64() / cfg.FailRate)
		if up < 1 {
			up = 1
		}
		t += up
		if t >= cfg.Horizon {
			return out
		}
		out = append(out, Event{At: t, Kind: Fail, Node: u})
		if cfg.MeanDowntime <= 0 {
			return out // permanent failure
		}
		down := des.FromSeconds(rng.ExpFloat64() * cfg.MeanDowntime.Seconds())
		if down < 1 {
			down = 1
		}
		t += down
		if t >= cfg.Horizon {
			return out
		}
		out = append(out, Event{At: t, Kind: Recover, Node: u})
	}
}

// referenceMoves samples node u's mobility trajectory every MoveInterval,
// emitting a Move event whenever the position actually changed.
func referenceMoves(cfg Config, u int, start geom.Point, region geom.Rect, out []Event) []Event {
	interval := cfg.MoveInterval
	if interval <= 0 {
		interval = 100 * des.Millisecond
	}
	var samples []des.Time
	for t := interval; t < cfg.Horizon; t += interval {
		samples = append(samples, t)
	}
	if len(samples) == 0 {
		return out
	}
	rng := rng.New(deriveSeed(cfg.Seed, int64(2*u+1)))
	var traj []geom.Point
	switch m := cfg.Mobility.(type) {
	case RandomWaypoint:
		traj = referenceWaypoint(m, start, region, samples, rng)
	case Drift:
		traj = referenceDrift(m, start, region, samples, rng)
	default:
		panic(fmt.Sprintf("no reference trajectory for %T", m))
	}
	prev := start
	for i, p := range traj {
		if p != prev {
			out = append(out, Event{At: samples[i], Kind: Move, Node: u, Pos: p})
			prev = p
		}
	}
	return out
}

// referenceWaypoint is the random-waypoint trajectory at every sample.
func referenceWaypoint(m RandomWaypoint, start geom.Point, region geom.Rect, samples []des.Time, rng *rand.Rand) []geom.Point {
	out := make([]geom.Point, len(samples))
	if m.SpeedMps <= 0 {
		for i := range out {
			out[i] = start
		}
		return out
	}
	pos := start
	legStart := des.Time(0)
	target := pos
	var legEnd des.Time
	pausedUntil := des.Time(0)

	newLeg := func(now des.Time) {
		target = geom.Point{
			X: region.MinX + rng.Float64()*region.Width(),
			Y: region.MinY + rng.Float64()*region.Height(),
		}
		legStart = now
		legEnd = now + des.FromSeconds(pos.Dist(target)/m.SpeedMps)
		if legEnd <= legStart {
			legEnd = legStart + 1
		}
	}
	newLeg(0)
	for i, t := range samples {
		for t >= legEnd {
			pos = target
			pausedUntil = legEnd + m.Pause
			if t < pausedUntil {
				break
			}
			newLeg(pausedUntil)
		}
		if t < legEnd && t >= legStart {
			frac := float64(t-legStart) / float64(legEnd-legStart)
			out[i] = pos.Add(target.Sub(pos).Scale(frac))
		} else {
			out[i] = pos
		}
	}
	return out
}

// referenceDrift is the drift trajectory at every sample.
func referenceDrift(m Drift, start geom.Point, region geom.Rect, samples []des.Time, rng *rand.Rand) []geom.Point {
	out := make([]geom.Point, len(samples))
	theta := rng.Float64() * 2 * math.Pi
	vx := m.SpeedMps * math.Cos(theta)
	vy := m.SpeedMps * math.Sin(theta)
	for i, t := range samples {
		s := t.Seconds()
		out[i] = geom.Point{
			X: reflect(start.X+vx*s, region.MinX, region.MaxX),
			Y: reflect(start.Y+vy*s, region.MinY, region.MaxY),
		}
	}
	return out
}

// streamedConfigs are the dynamics the streamed timeline is pinned on.
func streamedConfigs(seed int64) map[string]Config {
	const horizon = 2 * des.Second
	return map[string]Config{
		"waypoint with pause": {Mobility: RandomWaypoint{SpeedMps: 12, Pause: 150 * des.Millisecond},
			MoveInterval: 40 * des.Millisecond, FailRate: 1, MeanDowntime: 200 * des.Millisecond, Horizon: horizon, Seed: seed},
		"waypoint without pause": {Mobility: RandomWaypoint{SpeedMps: 8}, Horizon: horizon, Seed: seed},
		"drift":                  {Mobility: Drift{SpeedMps: 20}, MoveInterval: 30 * des.Millisecond, Horizon: horizon, Seed: seed},
		"churn only":             {FailRate: 3, MeanDowntime: 150 * des.Millisecond, Horizon: horizon, Seed: seed},
		"churn with gateways": {FailRate: 2, MeanDowntime: 250 * des.Millisecond, FailGateways: true,
			Mobility: Drift{SpeedMps: 5}, Horizon: horizon, Seed: seed},
		"permanent failures": {FailRate: 1.5, Horizon: horizon, Seed: seed},
		"churn, waypoint at rest": {FailRate: 2, MeanDowntime: 100 * des.Millisecond,
			Mobility: RandomWaypoint{}, Horizon: horizon, Seed: seed},
		"churn, drift at rest": {FailRate: 2, MeanDowntime: 100 * des.Millisecond,
			Mobility: Drift{}, Horizon: horizon, Seed: seed},
	}
}

// TestRestingNodesEndTheirStreams: a node that cannot move ends its
// mobility stream at its first sample, so resting waypoint and drift nodes
// sampled every nanosecond over 1e9 s yield at most one event each instead
// of stepping through 1e18 samples.
func TestRestingNodesEndTheirStreams(t *testing.T) {
	net, f := testNetwork(t)
	for _, m := range []Mobility{RandomWaypoint{}, Drift{}} {
		w, err := NewWorld(net.Clone(), f, Config{Mobility: m, MoveInterval: 1, Horizon: 1e9 * des.Second, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, e := range drain(w) {
			if seen[e.Node] || e.At != 1 {
				t.Fatalf("%T at rest: event %+v", m, e)
			}
			seen[e.Node] = true
		}
	}
}

// TestStreamedTimelineMatchesSorted: for seeds 1-20 under waypoint with and
// without pauses, drift, churn alone, churn that fails gateways, permanent
// failures, and churn among nodes that cannot move, the merged per-node streams yield exactly the sorted
// generated timeline, with NextEventAt announcing each event. A world
// advancing on the streams then applies the same events in the same order
// as one replaying the reference timeline as a script: every Change and
// every NextEventAt agree, and so do the final channel and forest.
func TestStreamedTimelineMatchesSorted(t *testing.T) {
	net, f := testNetwork(t)
	for seed := int64(1); seed <= 20; seed++ {
		for name, cfg := range streamedConfigs(seed) {
			what := fmt.Sprintf("%s, seed %d", name, seed)
			want := referenceTimeline(net, f, cfg)
			if len(want) == 0 {
				t.Fatalf("%s: reference timeline is empty", what)
			}
			w, err := NewWorld(net.Clone(), f, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range want {
				at, ok := w.NextEventAt()
				if !ok || at != e.At {
					t.Fatalf("%s: NextEventAt before event %d = %v, %v; want %v", what, i, at, ok, e.At)
				}
				if got := w.events.pop(); got != e {
					t.Fatalf("%s: event %d = %+v, want %+v", what, i, got, e)
				}
			}
			if at, ok := w.NextEventAt(); ok {
				t.Fatalf("%s: streams yield an event at %v past the reference's %d", what, at, len(want))
			}

			streamed, err := NewWorld(net.Clone(), f, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scripted, err := NewWorld(net.Clone(), f, Config{Script: want})
			if err != nil {
				t.Fatal(err)
			}
			for stop := 70 * des.Millisecond; ; stop += 70 * des.Millisecond {
				got, err := streamed.AdvanceTo(stop)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := scripted.AdvanceTo(stop)
				if err != nil {
					t.Fatal(err)
				}
				if !deep.DeepEqual(got, ref) {
					t.Fatalf("%s: change at %v = %+v, reference %+v", what, stop, got, ref)
				}
				gotAt, gotOK := streamed.NextEventAt()
				refAt, refOK := scripted.NextEventAt()
				if gotAt != refAt || gotOK != refOK {
					t.Fatalf("%s: NextEventAt after %v = %v, %v; reference %v, %v", what, stop, gotAt, gotOK, refAt, refOK)
				}
				if !refOK {
					break
				}
			}
			for u := 0; u < net.NumNodes(); u++ {
				if streamed.net.Nodes[u].Pos != scripted.net.Nodes[u].Pos || streamed.IsAlive(u) != scripted.IsAlive(u) ||
					parentOf(streamed.Forest(), u) != parentOf(scripted.Forest(), u) {
					t.Fatalf("%s: node %d ends in a different state", what, u)
				}
				for v := 0; v < net.NumNodes(); v++ {
					if math.Float64bits(streamed.net.Channel.RxPowerMW(u, v)) != math.Float64bits(scripted.net.Channel.RxPowerMW(u, v)) {
						t.Fatalf("%s: channel(%d,%d) differs", what, u, v)
					}
				}
			}
		}
	}
}
