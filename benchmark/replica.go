package main

// The traced replica of scream.Run. It assembles a run from the layers'
// public entry points — ScenarioSpec.Mesh, Mesh.FlowFrameTime, dynam.NewWorld,
// Network.SpatialEngine, flow.SchedulerDefByName, flow.Run, core.Run — and
// records a span around each call, so per-layer time is measured from
// outside the program. Its flow.Result must DeepEqual scream.Run's for the
// same spec; a spec feature the replica does not reproduce is an error, never
// a silent fallback.

import (
	"fmt"
	"time"

	"scream"
	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/dynam"
	"scream/internal/flow"
	"scream/internal/phys"
	"scream/internal/sched"
	"scream/internal/topo"
	"scream/internal/traffic"
)

// sampleEvery is the leaf-timing stride: timing every SCREAM call costs
// about a quarter of an FDD run, because a run makes tens of thousands.
const sampleEvery = 16

// tracedBackend forwards core.Backend and core.MeasuredBackend to an ideal
// backend, counting every primitive and timing every sampleEvery-th one.
type tracedBackend struct {
	b         *core.IdealBackend
	leaf      leafCounts
	screamSmp int
	hsSmp     int
	screamNs  int64
	hsNs      int64
}

func (t *tracedBackend) NumNodes() int       { return t.b.NumNodes() }
func (t *tracedBackend) Elapsed() des.Time   { return t.b.Elapsed() }
func (t *tracedBackend) ScreamCount() int    { return t.b.ScreamCount() }
func (t *tracedBackend) HandshakeCount() int { return t.b.HandshakeCount() }
func (t *tracedBackend) K() int              { return t.b.K() }

func (t *tracedBackend) Scream(vars []bool) []bool {
	t.leaf.Screams++
	if t.leaf.Screams%sampleEvery != 0 {
		return t.b.Scream(vars)
	}
	t0 := time.Now()
	out := t.b.Scream(vars)
	t.screamNs += int64(time.Since(t0))
	t.screamSmp++
	return out
}

func (t *tracedBackend) HandshakeSlot(links []phys.Link) []bool {
	t.leaf.Handshakes++
	t.leaf.Links += len(links)
	var out []bool
	if t.leaf.Handshakes%sampleEvery != 0 {
		out = t.b.HandshakeSlot(links)
	} else {
		t0 := time.Now()
		out = t.b.HandshakeSlot(links)
		t.hsNs += int64(time.Since(t0))
		t.hsSmp++
	}
	for _, ok := range out {
		if ok {
			t.leaf.OK++
		}
	}
	return out
}

// counts scales the sampled leaf times up to every call.
func (t *tracedBackend) counts() *leafCounts {
	c := t.leaf
	if t.screamSmp > 0 {
		c.ScreamNs = t.screamNs * int64(c.Screams) / int64(t.screamSmp)
	}
	if t.hsSmp > 0 {
		c.HandshakeNs = t.hsNs * int64(c.Handshakes) / int64(t.hsSmp)
	}
	return &c
}

// replica runs specs through the layers one call at a time, recording one
// trace per run. Every count it reports comes from reg, which the runs
// publish into exactly as scream.Run publishes into a registry it is given.
type replica struct {
	rec  *recorder
	reg  *scream.ObsRegistry
	runs int
	// flowSpan and buildSpan are the open flow.run and sched.build spans
	// that calls made from inside flow.Run nest under.
	flowSpan, buildSpan int
}

func newReplica() *replica {
	return &replica{rec: newRecorder(), reg: scream.NewObsRegistry()}
}

func (r *replica) run(spec scream.ScenarioSpec) (*flow.Result, error) {
	if err := replicaCovers(spec); err != nil {
		return nil, err
	}
	// The phys and sched counters are process-global: attach them for the
	// replica's runs only.
	scream.EnableRuntimeMetrics(r.reg)
	defer scream.EnableRuntimeMetrics(nil)
	rec := r.rec
	root := rec.newTrace("run")
	defer rec.end(root)

	sp := rec.begin("setup.mesh", root)
	m, err := spec.Mesh()
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	tm := core.DefaultTiming()
	sp = rec.begin("setup.frame_time", root)
	frame, err := m.FlowFrameTime(tm)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	rate := spec.Traffic.Load / frame.Seconds()
	arrivals := make([]traffic.Arrival, m.NumNodes())
	gws := map[int]bool{}
	for _, g := range m.Gateways() {
		gws[g] = true
	}
	for u := range arrivals {
		if gws[u] {
			continue
		}
		if arrivals[u], err = scream.NewPoisson(rate); err != nil {
			return nil, err
		}
	}

	net := m.Network
	var (
		world      *dynam.World
		repairCost des.Time
	)
	if d := spec.Dynamics; d != nil && (d.FailRate > 0 || (d.Mobility != "" && d.Mobility != "none")) {
		sp = rec.begin("dynam.world_build", root)
		dcfg := dynam.Config{
			FailRate:     d.FailRate,
			MeanDowntime: seconds(d.MeanDowntimeSec),
			FailGateways: d.FailGateways,
			MoveInterval: seconds(d.MoveIntervalSec),
			Horizon:      seconds(spec.HorizonSec),
			Seed:         spec.Seed,
		}
		switch d.Mobility {
		case "waypoint":
			dcfg.Mobility = dynam.RandomWaypoint{SpeedMps: d.SpeedMps, Pause: seconds(d.PauseSec)}
		case "drift":
			dcfg.Mobility = dynam.Drift{SpeedMps: d.SpeedMps}
		}
		net = m.Network.Clone()
		world, err = dynam.NewWorld(net, m.Forest, dcfg)
		if err == nil {
			world.SetObs(r.reg, nil)
			k := spec.K
			if k == 0 {
				k = net.InterferenceDiameter()
			}
			repairCost = tm.RepairCost(k)
		}
		rec.end(sp)
		if err != nil {
			return nil, err
		}
	}

	var engine phys.Engine
	if m.EngineName() == scream.EngineSpatial {
		sp = rec.begin("phys.spatial_build", root)
		idx, err := net.SpatialEngine(spec.Interference.CutoffM, spec.Interference.BucketM)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		if world != nil {
			world.AttachSpatial(idx)
		}
		engine = idx
	}

	sp = rec.begin("sched.new", root)
	sc, err := r.scheduler(spec, m, net, engine, tm)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	r.flowSpan = rec.begin("flow.run", root)
	res, err := flow.Run(flow.Config{
		Forest:         m.Forest,
		Links:          m.Links,
		Scheduler:      sc,
		Timing:         tm,
		Arrivals:       arrivals,
		Horizon:        seconds(spec.HorizonSec),
		Seed:           spec.Seed,
		MaxQueue:       spec.MaxQueue,
		MaxService:     spec.MaxService,
		FramesPerEpoch: spec.FramesPerEpoch,
		IdleWait:       seconds(spec.IdleWaitSec),
		Dynamics:       world,
		RepairCost:     repairCost,
		Metrics:        r.reg,
	})
	rec.end(r.flowSpan)
	if err != nil {
		return nil, err
	}
	r.runs++
	return res, nil
}

// scheduler builds the run's epoch scheduler through the registry and wraps
// its Build in a sched.build span.
func (r *replica) scheduler(spec scream.ScenarioSpec, m *scream.Mesh, net *topo.Network, engine phys.Engine, tm core.Timing) (flow.Scheduler, error) {
	def, err := flow.SchedulerDefByName(spec.SchedulerName())
	if err != nil {
		return flow.Scheduler{}, err
	}
	var sc flow.Scheduler
	if def.Name == "fdd" {
		sc, err = r.fdd(spec, m, net, tm)
	} else {
		sc, err = def.New(flow.SchedulerEnv{
			Channel: net.Channel, Engine: engine, Sens: net.Sens, Links: m.Links,
			K: spec.K, Timing: tm, P: spec.P, Seed: spec.Seed, Channels: 1, Radios: m.NumRadios(),
			Metrics: r.reg,
		})
	}
	if err != nil {
		return flow.Scheduler{}, err
	}
	build := sc.Build
	sc.Build = func(demands []int, epoch int) (*sched.Schedule, des.Time, error) {
		r.buildSpan = r.rec.begin("sched.build", r.flowSpan)
		s, ctrl, err := build(demands, epoch)
		r.rec.end(r.buildSpan)
		return s, ctrl, err
	}
	return sc, nil
}

// fdd reproduces flow.NewProtocolScheduler's static FDD path: every epoch
// runs core.Run on a fresh clone of one validated ideal backend, here
// wrapped so its primitives are counted and sampled.
func (r *replica) fdd(spec scream.ScenarioSpec, m *scream.Mesh, net *topo.Network, tm core.Timing) (flow.Scheduler, error) {
	k := spec.K
	if k == 0 {
		k = net.Sens.Diameter()
	}
	proto, err := core.NewIdealBackend(net.Channel, net.Sens, k, tm, false)
	if err != nil {
		return flow.Scheduler{}, err
	}
	return flow.Scheduler{Name: "FDD", Build: func(demands []int, _ int) (*sched.Schedule, des.Time, error) {
		tb := &tracedBackend{b: proto.Clone()}
		sp := r.rec.begin("core.run", r.buildSpan)
		res, err := core.Run(core.Config{Variant: core.FDD, Links: m.Links, Demands: demands, Backend: tb, Metrics: r.reg})
		r.rec.end(sp)
		r.rec.get(sp).Leaf = tb.counts()
		if err != nil {
			return nil, 0, err
		}
		return res.Schedule, res.ExecTime, nil
	}}, nil
}

// replicaCovers rejects spec features the replica does not reproduce.
func replicaCovers(spec scream.ScenarioSpec) error {
	switch {
	case spec.Traffic.Kind != "poisson" || spec.Traffic.Load <= 0:
		return fmt.Errorf("replica: only poisson traffic given as load is reproduced, got %q", spec.Traffic.Kind)
	case spec.Channels > 1:
		return fmt.Errorf("replica: multi-channel runs are not reproduced")
	case spec.SchedulerName() != "greedy" && spec.SchedulerName() != "fdd":
		return fmt.Errorf("replica: scheduler %q is not reproduced (greedy, fdd)", spec.SchedulerName())
	case spec.SchedulerName() == "fdd" && spec.Dynamics != nil:
		return fmt.Errorf("replica: fdd under dynamics is not reproduced")
	}
	return nil
}

// seconds converts seconds to simulated time exactly as scream.Run does.
func seconds(x float64) des.Time { return des.Time(x * float64(des.Second)) }
