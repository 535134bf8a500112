package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"scream"
	"scream/internal/flow"
)

// conserved is the packet-conservation identity every result must satisfy.
func conserved(r *flow.Result) error {
	if r.Offered != r.Delivered+r.Dropped+r.LostOnFailure+r.FinalBacklog {
		return fmt.Errorf("packet conservation: offered %d != delivered %d + dropped %d + lost %d + backlog %d",
			r.Offered, r.Delivered, r.Dropped, r.LostOnFailure, r.FinalBacklog)
	}
	return nil
}

// meshHeap records the live heap one mesh holds once FlowFrameTime has
// filled its caches. It runs first in a pass, before other work leaves
// garbage the measurement would have to see past.
func meshHeap(r *report, spec scream.ScenarioSpec) bool {
	heap, err := liveHeap(func() (any, error) {
		m, err := spec.Mesh()
		if err != nil {
			return nil, err
		}
		_, err = m.FlowFrameTime(scream.DefaultTiming())
		return m, err
	})
	r.set("setup_heap_mb", heap/1e6)
	return r.check(err, "setup heap")
}

// meshBuild is one set-up of a spec.
func meshBuild(spec scream.ScenarioSpec) func() error {
	return func() error {
		_, err := spec.Mesh()
		return err
	}
}

// gateRun is a probe's first run. It streams through RunWith(OnEpoch), must
// conserve packets and, on a spec without topology dynamics, every streamed
// slot must pass Channel.FeasibleSet on the mesh's own channel. It returns
// the result the probe's later runs must equal, or nil if a gate failed.
func gateRun(r *report, spec scream.ScenarioSpec) *flow.Result {
	r.attempted++
	check, err := spec.Mesh()
	if !r.check(err, "gate mesh") {
		return nil
	}
	ch := check.Network.Channel
	infeasible := 0
	res, err := scream.RunWith(context.Background(), spec, scream.RunOptions{OnEpoch: func(u scream.EpochUpdate) {
		if spec.Dynamics != nil {
			return
		}
		for k := 0; k < u.Schedule.Length(); k++ {
			if !ch.FeasibleSet(u.Schedule.Slot(k)) {
				infeasible++
			}
		}
	}})
	if !r.check(err, fmt.Sprintf("seed %d", spec.Seed)) || !r.check(conserved(res), fmt.Sprintf("seed %d", spec.Seed)) {
		return nil
	}
	if infeasible > 0 {
		r.fail("seed %d: %d streamed slots infeasible under the exact SINR model", spec.Seed, infeasible)
		return nil
	}
	return res
}

// runChecked runs one seed and applies the per-result gates: no error,
// conservation, and equality with ref when there is one. Only the run itself
// is timed and, with mem set, counted.
func runChecked(r *report, spec scream.ScenarioSpec, ref *flow.Result, mem *allocCounter) (*flow.Result, time.Duration) {
	r.attempted++
	if mem != nil {
		mem.resume()
	}
	t0 := time.Now()
	res, err := scream.Run(context.Background(), spec)
	d := time.Since(t0)
	if mem != nil {
		mem.pause(1)
	}
	switch {
	case !r.check(err, fmt.Sprintf("seed %d", spec.Seed)):
		return nil, d
	case !r.check(conserved(res), fmt.Sprintf("seed %d", spec.Seed)):
		return nil, d
	case ref != nil && !reflect.DeepEqual(res, ref):
		r.fail("seed %d: repeated run differs from the first", spec.Seed)
		return nil, d
	}
	return res, d
}

// firstEpoch times a run from its start to its first streamed epoch, then
// cancels it.
func firstEpoch(r *report, spec scream.ScenarioSpec) (float64, bool) {
	r.attempted++
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var first time.Duration
	t0 := time.Now()
	_, err := scream.RunWith(ctx, spec, scream.RunOptions{OnEpoch: func(scream.EpochUpdate) {
		if first == 0 {
			first = time.Since(t0)
			cancel()
		}
	}})
	if first == 0 {
		if err == nil {
			err = fmt.Errorf("no epoch streamed")
		}
		r.fail("seed %d: first epoch: %v", spec.Seed, err)
		return 0, false
	}
	return first.Seconds(), true
}

// flowTimed is the end-to-end pass of a flow workload. Every seed runs once,
// counted: allocations and goodput are means over all seeds. The probes run
// first through the gate and then p.repeats(w) times in all, their repeats
// spread evenly over the pass; each visit also takes a set-up and a
// first-epoch sample. Every time metric is the median over the probes of
// each one's fastest sample. Every repeat must equal the probe's gate run.
func flowTimed(w workload, specs []scream.ScenarioSpec, p plan) *report {
	r := newReport(w.name, false)
	if !meshHeap(r, specs[0]) {
		return r
	}
	for i := 0; i < p.warmup; i++ {
		scream.Run(context.Background(), specs[i%len(specs)])
	}

	n := len(specs)
	refs := make([]*flow.Result, n)
	run, setup, ttfb := make(fastest, p.probes), make(fastest, p.probes), make(fastest, p.probes)
	var goodput []float64
	var mem allocCounter
	// visit runs probe j once more: a set-up, a first epoch and a timed run.
	visit := func(j int, counted *allocCounter) *flow.Result {
		spec := specs[j]
		if s, err := timeBuild(meshBuild(spec)); r.check(err, "setup") {
			setup.add(j, s)
		}
		if d, ok := firstEpoch(r, spec); ok {
			ttfb.add(j, d)
		}
		res, d := runChecked(r, spec, refs[j], counted)
		if res != nil {
			run.add(j, d.Seconds())
		}
		return res
	}
	var queue []int
	for k := 1; k < p.repeats(w); k++ {
		for j := 0; j < p.probes; j++ {
			queue = append(queue, j)
		}
	}
	next := 0
	end := p.start()
	for i, spec := range specs {
		var res *flow.Result
		if i < p.probes {
			if refs[i] = gateRun(r, spec); refs[i] == nil {
				continue
			}
			res = visit(i, &mem)
		} else {
			res, _ = runChecked(r, spec, nil, &mem)
		}
		if res != nil {
			goodput = append(goodput, res.GoodputPps)
		}
		for ; next < len(queue) && next*n < (i+1)*len(queue) && queue[next] <= i; next++ {
			visit(queue[next], nil)
		}
		if end.passed(r) {
			break
		}
	}
	for ; next < len(queue) && !end.passed(r); next++ {
		visit(queue[next], nil)
	}

	r.samples = mem.units
	r.set("setup_s", setup.median())
	r.set("run_s_p50", run.median())
	r.set("allocs_per_run", mem.perUnit(mem.mallocs))
	r.set("bytes_per_run", mem.perUnit(mem.bytes))
	r.set("goodput_pps", mean(goodput))
	r.set("ttfb_s_p50", ttfb.median())
	return r
}

// flowTraced is the per-layer pass of a flow workload: every seed runs once
// untraced through scream.Run and once through the traced replica, in
// alternating order, and the two results must be equal.
func flowTraced(w workload, specs []scream.ScenarioSpec, p plan) (*report, *recorder) {
	r := newReport(w.name, true)
	rep := newReplica()
	for i := 0; i < p.warmup; i++ {
		scream.Run(context.Background(), specs[i%len(specs)])
	}
	var plain, overhead []float64
	var mem memDelta
	mem.start()
	end := p.start()
	for i, spec := range specs {
		var (
			got    *flow.Result
			err    error
			traced time.Duration
		)
		replicaRun := func() {
			t0 := time.Now()
			got, err = rep.run(spec)
			traced = time.Since(t0)
		}
		if i%2 == 1 {
			replicaRun()
		}
		ref, d := runChecked(r, spec, nil, nil)
		if i%2 == 0 {
			replicaRun()
		}
		plain = append(plain, d.Seconds())
		overhead = append(overhead, ratio(traced.Seconds(), d.Seconds())-1)
		r.attempted++
		if r.check(err, fmt.Sprintf("replica seed %d", spec.Seed)) && ref != nil && !reflect.DeepEqual(got, ref) {
			r.fail("seed %d: traced replica result differs from scream.Run", spec.Seed)
		}
		if end.passed(r) {
			break
		}
	}
	mem.stop()

	r.samples = len(plain)
	units := float64(2 * len(plain))
	r.set("runtime.gc_per_run", mem.gcs()/units)
	r.set("runtime.gc_pause_s_per_run", mem.pause()/units)
	r.set("e2e.runs_per_s", ratio(float64(len(plain)), sum(plain)))
	r.set("e2e.run_s_p90", percentile(plain, 90))
	r.set("trace.overhead_frac", median(overhead))
	layerMetrics(r, rep)
	return r, rep.rec
}
