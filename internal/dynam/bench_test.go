package dynam

import (
	"testing"

	"scream/internal/des"
	"scream/internal/route"
	"scream/internal/topo"
)

// BenchmarkWorldAdvance64 drives the greedy-churn64 workload's dynamics
// without traffic: an 8x8 grid at 30 m with quadrant gateways, failures at
// 0.2 per node per second with a 0.5 s mean downtime, and random-waypoint
// mobility at 2 m/s sampled every 100 ms, advanced through its 3 s timeline
// in 175 ms steps (about one flow epoch). One op clones the network, builds
// the world and its timeline, and applies every batch: the channel rows,
// graph refreshes and forest repairs a dynamics run pays for.
func BenchmarkWorldAdvance64(b *testing.B) {
	net, err := topo.NewGrid(topo.GridConfig{Rows: 8, Cols: 8, Step: 30, Params: topo.DefaultParams()}, nil)
	if err != nil {
		b.Fatal(err)
	}
	gws, err := topo.QuadrantGateways(net)
	if err != nil {
		b.Fatal(err)
	}
	f, err := route.BuildForest(net.Comm, gws, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		FailRate:     0.2,
		MeanDowntime: 500 * des.Millisecond,
		Mobility:     RandomWaypoint{SpeedMps: 2},
		Horizon:      3 * des.Second,
		Seed:         1,
	}
	const step = 175 * des.Millisecond
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(net.Clone(), f, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for t := step; ; t += step {
			if _, err := w.AdvanceTo(t); err != nil {
				b.Fatal(err)
			}
			if _, ok := w.NextEventAt(); !ok {
				break
			}
		}
	}
}
