// Package gapharness measures the optimality gap of every registered
// scheduler backend (sched.Backends). SCREAM's claim is that cheap
// scheduling gets close to the centralized optimum under physical
// interference; this harness turns "close" into a number. On small instances
// (at most 20 links) it computes each backend's exact gap — schedule length
// divided by sched.OptimalLength — across randomized topologies and seeds.
// On larger instances, where the exact DP is out of reach, it reports each
// backend's length relative to the best backend on the same instance, the
// continuously verifiable proxy. The pinned worst-case gaps live in this
// package's tests and run in plain `go test ./...`.
package gapharness

import (
	"fmt"

	"scream/internal/phys"
	"scream/internal/rng"
	"scream/internal/sched"
	"scream/internal/topo"
)

// Instance is one scheduling problem the harness evaluates backends on.
type Instance struct {
	// Topo names the generating topology family (line, grid, uniform).
	Topo string
	// Seed reproduces the instance.
	Seed int64
	// Ch is the physical channel of the instance's network.
	Ch *phys.Channel
	// Links and Demands form the scheduling problem.
	Links   []phys.Link
	Demands []int
}

// Topologies lists the instance families of the default grid: the regimes
// where scheduler quality differs (a line serializes, a grid admits spatial
// reuse, uniform placement mixes both).
func Topologies() []string { return []string{"line", "grid", "uniform"} }

// RandomInstance builds a deterministic instance of the named topology
// family with numLinks links and the given per-link demand ceiling (demands
// uniform in [1, maxDemand]; 1 yields the unit-demand instances the exact
// unit DP was built for). Links are drawn as random directed communication
// edges without endpoint reuse, so every instance is schedulable.
func RandomInstance(topoKind string, numLinks, maxDemand int, seed int64) (*Instance, error) {
	if numLinks <= 0 || maxDemand <= 0 {
		return nil, fmt.Errorf("gapharness: need positive numLinks and maxDemand")
	}
	rng := rng.New(seed)
	var net *topo.Network
	var err error
	switch topoKind {
	case "line":
		net, err = topo.NewLine(3*numLinks, 30, topo.DefaultParams(), 0)
	case "grid":
		dim := 4
		for dim*dim < 3*numLinks {
			dim++
		}
		net, err = topo.NewGrid(topo.GridConfig{
			Rows: dim, Cols: dim, Step: 30,
			TxPowerMW: phys.DBm(4).MilliWatts(),
			Params:    topo.DefaultParams(),
		}, nil)
	case "uniform":
		net, err = topo.NewUniform(topo.UniformConfig{
			N: 3 * numLinks, Side: topo.SideForDensity(3*numLinks, 1000),
			MinTxDBm: 4, MaxTxDBm: 10,
			Params: topo.DefaultParams(),
		}, rng)
	default:
		return nil, fmt.Errorf("gapharness: unknown topology %q", topoKind)
	}
	if err != nil {
		return nil, fmt.Errorf("gapharness: %s instance: %w", topoKind, err)
	}

	// Draw directed links over communication edges, no endpoint reuse: each
	// link is singleton-feasible (it is a communication edge) and primary
	// conflicts never make the instance unschedulable.
	type edge struct{ u, v int }
	var edges []edge
	n := net.NumNodes()
	for u := 0; u < n; u++ {
		for _, v := range net.Comm.Neighbors(u) {
			if u < v {
				edges = append(edges, edge{u, v})
			}
		}
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("gapharness: %s instance has no communication edges", topoKind)
	}
	used := make([]bool, n)
	var links []phys.Link
	for _, ei := range rng.Perm(len(edges)) {
		if len(links) == numLinks {
			break
		}
		e := edges[ei]
		if used[e.u] || used[e.v] {
			continue
		}
		l := phys.Link{From: e.u, To: e.v}
		if rng.Intn(2) == 0 {
			l = l.Reverse()
		}
		if !net.Channel.FeasibleSet([]phys.Link{l}) {
			continue
		}
		used[e.u], used[e.v] = true, true
		links = append(links, l)
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("gapharness: %s instance yielded no feasible links", topoKind)
	}
	demands := make([]int, len(links))
	for i := range demands {
		demands[i] = 1 + rng.Intn(maxDemand)
	}
	return &Instance{
		Topo: topoKind, Seed: seed,
		Ch: net.Channel, Links: links, Demands: demands,
	}, nil
}

// DefaultInstances builds the fixed instance grid the pinned tests and docs
// run over: every topology family × seedsPerTopo seeds, numLinks links each,
// demands in [1, maxDemand]. Seeds derive only from (family, index), so the
// grid is stable across runs and machines.
func DefaultInstances(numLinks, maxDemand, seedsPerTopo int) ([]*Instance, error) {
	var out []*Instance
	for ti, kind := range Topologies() {
		for s := 0; s < seedsPerTopo; s++ {
			inst, err := RandomInstance(kind, numLinks, maxDemand, int64(1000*(ti+1)+s))
			if err != nil {
				return nil, err
			}
			out = append(out, inst)
		}
	}
	return out, nil
}

// Gap summarizes one backend's measured gap over an instance set.
type Gap struct {
	// Backend is the sched.Backend name.
	Backend string
	// Worst and Mean are the maximum and average ratio over the instances:
	// length/OptimalLength for ExactGaps, length/bestBackendLength for
	// RatioGaps. Both are >= 1 by construction.
	Worst, Mean float64
	// Instances is how many instances the backend was measured on.
	Instances int
}

// ExactGaps schedules every instance with every backend and returns each
// backend's exact optimality gap — schedule length over sched.OptimalLength
// — verifying every schedule on the way. Instances must be small enough for
// the exact DP (at most 20 links; demand state space within its cap).
func ExactGaps(backends []sched.Backend, instances []*Instance) ([]Gap, error) {
	if backends == nil {
		backends = sched.Backends()
	}
	gaps := make([]Gap, len(backends))
	for i, b := range backends {
		gaps[i].Backend = b.Name
	}
	for _, inst := range instances {
		opt, err := sched.OptimalLength(inst.Ch, inst.Links, inst.Demands)
		if err != nil {
			return nil, fmt.Errorf("gapharness: %s/%d optimal: %w", inst.Topo, inst.Seed, err)
		}
		if opt == 0 {
			continue
		}
		for i, b := range backends {
			s, err := b.Build(inst.Ch, inst.Links, inst.Demands)
			if err != nil {
				return nil, fmt.Errorf("gapharness: %s/%d %s: %w", inst.Topo, inst.Seed, b.Name, err)
			}
			if err := s.Verify(inst.Ch, inst.Links, inst.Demands); err != nil {
				return nil, fmt.Errorf("gapharness: %s/%d %s: %w", inst.Topo, inst.Seed, b.Name, err)
			}
			if s.Length() < opt {
				return nil, fmt.Errorf("gapharness: %s/%d %s length %d beats optimum %d",
					inst.Topo, inst.Seed, b.Name, s.Length(), opt)
			}
			ratio := float64(s.Length()) / float64(opt)
			if ratio > gaps[i].Worst {
				gaps[i].Worst = ratio
			}
			gaps[i].Mean += ratio
			gaps[i].Instances++
		}
	}
	for i := range gaps {
		if gaps[i].Instances > 0 {
			gaps[i].Mean /= float64(gaps[i].Instances)
		}
	}
	return gaps, nil
}

// RatioGaps schedules every instance with every backend and returns each
// backend's length relative to the best backend on the same instance — the
// scalable proxy for instances beyond the exact DP. Schedules are verified;
// the best backend's ratio is exactly 1 on each instance.
func RatioGaps(backends []sched.Backend, instances []*Instance) ([]Gap, error) {
	if backends == nil {
		backends = sched.Backends()
	}
	gaps := make([]Gap, len(backends))
	for i, b := range backends {
		gaps[i].Backend = b.Name
	}
	lengths := make([]int, len(backends))
	for _, inst := range instances {
		best := 0
		for i, b := range backends {
			s, err := b.Build(inst.Ch, inst.Links, inst.Demands)
			if err != nil {
				return nil, fmt.Errorf("gapharness: %s/%d %s: %w", inst.Topo, inst.Seed, b.Name, err)
			}
			if err := s.Verify(inst.Ch, inst.Links, inst.Demands); err != nil {
				return nil, fmt.Errorf("gapharness: %s/%d %s: %w", inst.Topo, inst.Seed, b.Name, err)
			}
			lengths[i] = s.Length()
			if best == 0 || s.Length() < best {
				best = s.Length()
			}
		}
		if best == 0 {
			continue
		}
		for i := range backends {
			ratio := float64(lengths[i]) / float64(best)
			if ratio > gaps[i].Worst {
				gaps[i].Worst = ratio
			}
			gaps[i].Mean += ratio
			gaps[i].Instances++
		}
	}
	for i := range gaps {
		if gaps[i].Instances > 0 {
			gaps[i].Mean /= float64(gaps[i].Instances)
		}
	}
	return gaps, nil
}
