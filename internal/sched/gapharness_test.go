package sched

// The optimality-gap harness. SCREAM's claim is that cheap scheduling gets
// close to the centralized optimum under physical interference; this harness
// turns "close" into a number for every member of the static scheduler
// family. On small instances (at most 20 links) it computes each backend's
// exact gap — schedule length divided by OptimalLength — across randomized
// topologies and seeds. On larger instances, where the exact DP is out of
// reach, it reports each backend's length relative to the best backend on
// the same instance, the continuously verifiable proxy. The pinned
// worst-case gaps below run in plain `go test ./...`.

import (
	"fmt"
	"testing"

	"scream/internal/phys"
	"scream/internal/rng"
	"scream/internal/topo"
)

// backend is one member of the single-channel scheduler family behind a
// uniform build signature: the shape the optimality-gap harness below
// iterates over. Every backend's output must satisfy Schedule.Verify against
// the same inputs.
type backend struct {
	// Name identifies the backend in harness reports and figure series.
	Name string
	// Build computes a feasible schedule for the instance over any
	// interference engine (the dense channel or the spatial index).
	Build func(ch phys.Engine, links []phys.Link, demands []int) (*Schedule, error)
}

// backends returns the static scheduler family the gap harness measures, in
// reporting order: the three static greedy orderings of the MobiCom 2006
// baseline, the max-weight backlog×rate scheduler, and the Fan-Zhang
// length-class approximation. Adding a scheduler here automatically enrolls
// it in the gap harness and its pinned worst-case tests. The schedulers a run
// can name are catalogued by the flow-scheduler registry, not here.
func backends() []backend {
	ordered := func(ord Ordering) func(phys.Engine, []phys.Link, []int) (*Schedule, error) {
		return func(ch phys.Engine, links []phys.Link, demands []int) (*Schedule, error) {
			return GreedyPhysical(ch, links, demands, ord)
		}
	}
	return []backend{
		{Name: "greedy(head-id-desc)", Build: ordered(ByHeadIDDesc)},
		{Name: "greedy(demand-desc)", Build: ordered(ByDemandDesc)},
		{Name: "greedy(length-desc)", Build: ordered(ByLengthDesc)},
		{Name: "maxweight", Build: GreedyMaxWeight},
		{Name: "fanzhang", Build: ApproxFanZhang},
	}
}

// instance is one scheduling problem the harness evaluates backends on.
type instance struct {
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

// topologies lists the instance families of the default grid: the regimes
// where scheduler quality differs (a line serializes, a grid admits spatial
// reuse, uniform placement mixes both).
func topologies() []string { return []string{"line", "grid", "uniform"} }

// randomInstance builds a deterministic instance of the named topology
// family with numLinks links and the given per-link demand ceiling (demands
// uniform in [1, maxDemand]; 1 yields the unit-demand instances the exact
// unit DP was built for). Links are drawn as random directed communication
// edges without endpoint reuse, so every instance is schedulable.
func randomInstance(topoKind string, numLinks, maxDemand int, seed int64) (*instance, error) {
	if numLinks <= 0 || maxDemand <= 0 {
		return nil, fmt.Errorf("gap harness: need positive numLinks and maxDemand")
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
		return nil, fmt.Errorf("gap harness: unknown topology %q", topoKind)
	}
	if err != nil {
		return nil, fmt.Errorf("gap harness: %s instance: %w", topoKind, err)
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
		return nil, fmt.Errorf("gap harness: %s instance has no communication edges", topoKind)
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
		return nil, fmt.Errorf("gap harness: %s instance yielded no feasible links", topoKind)
	}
	demands := make([]int, len(links))
	for i := range demands {
		demands[i] = 1 + rng.Intn(maxDemand)
	}
	return &instance{
		Topo: topoKind, Seed: seed,
		Ch: net.Channel, Links: links, Demands: demands,
	}, nil
}

// defaultInstances builds the fixed instance grid the pinned tests and docs
// run over: every topology family × seedsPerTopo seeds, numLinks links each,
// demands in [1, maxDemand]. Seeds derive only from (family, index), so the
// grid is stable across runs and machines.
func defaultInstances(numLinks, maxDemand, seedsPerTopo int) ([]*instance, error) {
	var out []*instance
	for ti, kind := range topologies() {
		for s := 0; s < seedsPerTopo; s++ {
			inst, err := randomInstance(kind, numLinks, maxDemand, int64(1000*(ti+1)+s))
			if err != nil {
				return nil, err
			}
			out = append(out, inst)
		}
	}
	return out, nil
}

// gap summarizes one backend's measured gap over an instance set.
type gap struct {
	// Backend is the backend's name.
	Backend string
	// Worst and Mean are the maximum and average ratio over the instances:
	// length/OptimalLength for exactGaps, length/bestBackendLength for
	// ratioGaps. Both are >= 1 by construction.
	Worst, Mean float64
	// Instances is how many instances the backend was measured on.
	Instances int
}

// exactGaps schedules every instance with every backend and returns each
// backend's exact optimality gap — schedule length over OptimalLength
// — verifying every schedule on the way. Instances must be small enough for
// the exact DP (at most 20 links; demand state space within its cap).
func exactGaps(instances []*instance) ([]gap, error) {
	family := backends()
	gaps := make([]gap, len(family))
	for i, b := range family {
		gaps[i].Backend = b.Name
	}
	for _, inst := range instances {
		opt, err := OptimalLength(inst.Ch, inst.Links, inst.Demands)
		if err != nil {
			return nil, fmt.Errorf("gap harness: %s/%d optimal: %w", inst.Topo, inst.Seed, err)
		}
		if opt == 0 {
			continue
		}
		for i, b := range family {
			s, err := b.Build(inst.Ch, inst.Links, inst.Demands)
			if err != nil {
				return nil, fmt.Errorf("gap harness: %s/%d %s: %w", inst.Topo, inst.Seed, b.Name, err)
			}
			if err := s.Verify(inst.Ch, inst.Links, inst.Demands); err != nil {
				return nil, fmt.Errorf("gap harness: %s/%d %s: %w", inst.Topo, inst.Seed, b.Name, err)
			}
			if s.Length() < opt {
				return nil, fmt.Errorf("gap harness: %s/%d %s length %d beats optimum %d",
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

// ratioGaps schedules every instance with every backend and returns each
// backend's length relative to the best backend on the same instance — the
// scalable proxy for instances beyond the exact DP. Schedules are verified;
// the best backend's ratio is exactly 1 on each instance.
func ratioGaps(instances []*instance) ([]gap, error) {
	family := backends()
	gaps := make([]gap, len(family))
	for i, b := range family {
		gaps[i].Backend = b.Name
	}
	lengths := make([]int, len(family))
	for _, inst := range instances {
		best := 0
		for i, b := range family {
			s, err := b.Build(inst.Ch, inst.Links, inst.Demands)
			if err != nil {
				return nil, fmt.Errorf("gap harness: %s/%d %s: %w", inst.Topo, inst.Seed, b.Name, err)
			}
			if err := s.Verify(inst.Ch, inst.Links, inst.Demands); err != nil {
				return nil, fmt.Errorf("gap harness: %s/%d %s: %w", inst.Topo, inst.Seed, b.Name, err)
			}
			lengths[i] = s.Length()
			if best == 0 || s.Length() < best {
				best = s.Length()
			}
		}
		if best == 0 {
			continue
		}
		for i := range family {
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

// The pinned worst-case optimality gaps: every registered backend must stay
// under its pinned worst gap on the fixed instance grid, and every backend
// must have a pin — adding a scheduler to backends without extending
// these tables fails the suite. Pins carry headroom over the measured worst
// (e.g. greedy measured 1.29 on the unit grid, pinned at 1.5): they are
// regression tripwires for scheduler-quality collapse, not precision
// measurements.

// checkPins runs one gap computation and asserts the per-backend pins.
func checkPins(t *testing.T, gaps []gap, pins map[string]float64, what string) {
	t.Helper()
	for _, g := range gaps {
		pin, ok := pins[g.Backend]
		if !ok {
			t.Errorf("%s: backend %q has no pinned worst gap — extend the table", what, g.Backend)
			continue
		}
		if g.Instances == 0 {
			t.Errorf("%s: backend %q measured on zero instances", what, g.Backend)
			continue
		}
		if g.Worst > pin {
			t.Errorf("%s: %s worst gap %.3f exceeds pin %.2f (mean %.3f over %d instances)",
				what, g.Backend, g.Worst, pin, g.Mean, g.Instances)
		}
		if g.Worst < 1 || g.Mean < 1 {
			t.Errorf("%s: %s gap below 1 (worst %.3f, mean %.3f): ratios are broken",
				what, g.Backend, g.Worst, g.Mean)
		}
		t.Logf("%s: %-22s worst %.3f mean %.3f (pin %.2f, %d instances)",
			what, g.Backend, g.Worst, g.Mean, pin, g.Instances)
	}
}

// TestExactGapsUnitDemand16Links pins every backend's exact worst gap on the
// fixed 16-link unit-demand grid (line/grid/uniform × 4 seeds): the property
// the repo previously asserted for one greedy order on one topology, now
// continuously verified for the whole family.
func TestExactGapsUnitDemand16Links(t *testing.T) {
	instances, err := defaultInstances(16, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	gaps, err := exactGaps(instances)
	if err != nil {
		t.Fatal(err)
	}
	checkPins(t, gaps, map[string]float64{
		"greedy(head-id-desc)": 1.5,
		"greedy(demand-desc)":  1.5,
		"greedy(length-desc)":  1.5,
		"maxweight":            1.5,
		"fanzhang":             2.0,
	}, "unit-16")
}

// TestExactGapsGeneralDemands pins the family against the general-demand
// exact DP (8 links, demands in [1,3]) — the regime the flow layer's real
// aggregated demand vectors live in.
func TestExactGapsGeneralDemands(t *testing.T) {
	instances, err := defaultInstances(8, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	gaps, err := exactGaps(instances)
	if err != nil {
		t.Fatal(err)
	}
	checkPins(t, gaps, map[string]float64{
		"greedy(head-id-desc)": 1.4,
		"greedy(demand-desc)":  1.4,
		"greedy(length-desc)":  1.4,
		"maxweight":            1.4,
		"fanzhang":             1.8,
	}, "general-8")
}

// TestRatioGapsLargeInstances pins the relative spread on 40-link instances
// beyond the exact DP: no backend may trail the best backend by more than
// its pin, and on every instance some backend has ratio exactly 1.
func TestRatioGapsLargeInstances(t *testing.T) {
	var instances []*instance
	for _, kind := range topologies() {
		for s := 0; s < 3; s++ {
			inst, err := randomInstance(kind, 40, 6, int64(7000+s))
			if err != nil {
				t.Fatal(err)
			}
			instances = append(instances, inst)
		}
	}
	gaps, err := ratioGaps(instances)
	if err != nil {
		t.Fatal(err)
	}
	checkPins(t, gaps, map[string]float64{
		"greedy(head-id-desc)": 1.5,
		"greedy(demand-desc)":  1.5,
		"greedy(length-desc)":  1.5,
		"maxweight":            1.5,
		"fanzhang":             2.2,
	}, "ratio-40")
	best := 10.0
	for _, g := range gaps {
		if g.Worst < best {
			best = g.Worst
		}
	}
	if best > 2.2 {
		t.Errorf("even the best backend trails by %.3f: ratio normalization is broken", best)
	}
}

// TestExactGapsRejectOversizedInstances pins the harness's error path: the
// exact path must refuse instances beyond the DP limits instead of silently
// reporting a bogus gap.
func TestExactGapsRejectOversizedInstances(t *testing.T) {
	inst, err := randomInstance("grid", 21, 1, 1)
	if err == nil && len(inst.Links) == 21 {
		if _, err := exactGaps([]*instance{inst}); err == nil {
			t.Error("21-link exact gap should fail (OptimalLength limit)")
		}
	}
	if _, err := randomInstance("klein-bottle", 8, 1, 1); err == nil {
		t.Error("unknown topology should fail")
	}
	if _, err := randomInstance("grid", 0, 1, 1); err == nil {
		t.Error("zero links should fail")
	}
}

// TestBackendsAllRegistered pins the registry shape the harness (and the
// sched figure) relies on: at least the two new queue-aware/approximation
// schedulers plus the greedy family, with unique names.
func TestBackendsAllRegistered(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range backends() {
		if seen[b.Name] {
			t.Errorf("duplicate backend name %q", b.Name)
		}
		seen[b.Name] = true
		if b.Build == nil {
			t.Errorf("backend %q has no Build", b.Name)
		}
	}
	for _, want := range []string{"greedy(head-id-desc)", "maxweight", "fanzhang"} {
		if !seen[want] {
			t.Errorf("backend %q missing from registry", want)
		}
	}
}
