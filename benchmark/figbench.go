package main

// The figures-quick workload: the quick figure suite, the path figgen takes.
// Its seeds are fixed by the figures, so only set-up depends on -seed.

import (
	"reflect"
	"time"

	"scream"
	"scream/internal/core"
	"scream/internal/exp"
	"scream/internal/flow"
)

var figureSuite = []struct {
	metric string
	run    func(scream.ExperimentOptions) (*scream.Figure, error)
}{
	{"exp.fig6_s", scream.Fig6},
	{"exp.fig7_s", scream.Fig7},
	{"exp.fig8_s", scream.Fig8},
	{"exp.fig9_s", scream.Fig9},
	{"exp.figflowload_s", scream.FigFlowLoad},
	{"exp.figchurn_s", scream.FigChurn},
	{"exp.figchannels_s", scream.FigChannels},
	{"exp.figsched_s", scream.FigSched},
}

var figureOpts = scream.ExperimentOptions{Quick: true, Workers: 2}

// setupDensity is the Fig6 sweep point whose deployment stands for the
// suite's set-up.
const setupDensity = 10000

// runSuite runs every figure once and returns each figure's wall time. With
// rec set, each figure call is a span under one suite span.
func runSuite(rec *recorder) (figs []*scream.Figure, times []float64, err error) {
	root := 0
	if rec != nil {
		root = rec.newTrace("suite")
		defer rec.end(root)
	}
	for _, f := range figureSuite {
		sp := 0
		if rec != nil {
			sp = rec.begin(f.metric, root)
		}
		t0 := time.Now()
		fig, err := f.run(figureOpts)
		times = append(times, time.Since(t0).Seconds())
		if rec != nil {
			rec.end(sp)
		}
		if err != nil {
			return nil, nil, err
		}
		figs = append(figs, fig)
	}
	return figs, times, nil
}

// suiteChecked runs one suite and requires it to equal the reference (the
// first suite of the pass when ref is nil). It returns the suite's wall
// time and each figure's.
func suiteChecked(r *report, rec *recorder, ref *[]*scream.Figure) (total float64, times []float64) {
	r.attempted++
	t0 := time.Now()
	figs, times, err := runSuite(rec)
	total = time.Since(t0).Seconds()
	if !r.check(err, "figure suite") {
		return total, times
	}
	if *ref == nil {
		*ref = figs
	} else if !reflect.DeepEqual(figs, *ref) {
		r.fail("figure suite differs from the first suite of the pass")
	}
	return total, times
}

// fig6Repeats is how many more times Fig6 runs after each timed suite, so
// that ttfb_s_p50 is the median of forty. At 80-150 ms on two workers Fig6 is
// the figure most easily slowed by load on either CPU. On a shared 2-vCPU VM
// the fastest of twenty samples spread 24-32 % between passes; the median of
// forty spread 5-11 %.
const fig6Repeats = 9

// figuresTimed runs a fixed number of suites after one untimed suite.
// run_s_p50 is the sum over the figures of each one's fastest run, the suite
// as fast as the host allows. After every suite Fig6, the first figure, runs
// fig6Repeats more times, checked against the suite's; ttfb_s_p50 is the
// median of its runs. Each set-up seed builds once after every one of those
// runs; setup_s is the median over the seeds of each one's fastest build. A
// build of about 0.5 ms takes 380 or 600 µs depending on the host's state
// for the second or so around it, so spreading 36 builds of a seed over the
// pass makes it likely that one lands in a fast stretch.
func figuresTimed(w workload, seeds []int64, p plan) *report {
	r := newReport(w.name, false)
	heap, err := liveHeap(func() (any, error) {
		s, err := exp.GridScenario(setupDensity, seeds[0])
		if err != nil {
			return nil, err
		}
		_, err = flow.FrameTime(s.Net.Channel, s.Forest, s.Links, core.DefaultTiming())
		return s, err
	})
	r.set("setup_heap_mb", heap/1e6)
	if !r.check(err, "setup heap") {
		return r
	}
	var ref []*scream.Figure
	if p.warmup > 0 {
		suiteChecked(r, nil, &ref)
	}

	figs, setup := make(fastest, len(figureSuite)), make(fastest, len(seeds))
	var fig6 []float64
	var mem allocCounter
	end := p.start()
	for k := 0; k < p.suites(w) && !end.passed(r); k++ {
		mem.resume()
		_, times := suiteChecked(r, nil, &ref)
		mem.pause(1)
		for i, d := range times {
			figs.add(i, d)
		}
		if len(times) > 0 {
			fig6 = append(fig6, times[0])
		}
		for j := 0; j < fig6Repeats && ref != nil; j++ {
			r.attempted++
			t0 := time.Now()
			fig, err := figureSuite[0].run(figureOpts)
			d := time.Since(t0).Seconds()
			figs.add(0, d)
			fig6 = append(fig6, d)
			if r.check(err, "Fig6") && !reflect.DeepEqual(fig, ref[0]) {
				r.fail("Fig6 differs from the first suite's")
			}
			for i, seed := range seeds {
				d, err := timeBuild(func() error {
					_, err := exp.GridScenario(setupDensity, seed)
					return err
				})
				if !r.check(err, "setup") {
					return r
				}
				setup.add(i, d)
			}
		}
	}

	r.samples = mem.units
	r.set("setup_s", setup.median())
	r.set("run_s_p50", sum(figs))
	r.set("allocs_per_run", mem.perUnit(mem.mallocs))
	r.set("bytes_per_run", mem.perUnit(mem.bytes))
	r.set("goodput_pps", flowLoadGoodput(ref))
	r.set("ttfb_s_p50", median(fig6))
	return r
}

// flowLoadGoodput is the mean delivered goodput over every FigFlowLoad
// point: the suite's guard against getting faster by scheduling worse.
func flowLoadGoodput(figs []*scream.Figure) float64 {
	var ys []float64
	for i, f := range figureSuite {
		if f.metric != "exp.figflowload_s" || i >= len(figs) {
			continue
		}
		for _, s := range figs[i].Series {
			for _, pt := range s.Points {
				ys = append(ys, pt.Y)
			}
		}
	}
	return mean(ys)
}

// figuresTraced alternates untraced suites with suites timed figure by
// figure, then runs one suite with the runtime metric registry attached to
// count the protocol and scheduler work the figures do.
func figuresTraced(w workload, p plan) (*report, *recorder) {
	r := newReport(w.name, true)
	rec := newRecorder()
	var ref []*scream.Figure
	if p.warmup > 0 {
		suiteChecked(r, nil, &ref)
	}
	var plain []float64
	var mem memDelta
	mem.start()
	end := p.start()
	for k := 0; k < max(2, p.suites(w)) && !end.passed(r); k++ {
		if k%2 == 0 {
			total, _ := suiteChecked(r, nil, &ref)
			plain = append(plain, total)
		} else {
			suiteChecked(r, rec, &ref)
		}
	}
	mem.stop()

	reg := scream.NewObsRegistry()
	scream.EnableRuntimeMetrics(reg)
	suiteChecked(r, nil, &ref)
	scream.EnableRuntimeMetrics(nil)
	countMetrics(r, reg, 1)

	lt := rec.aggregate()
	n := float64(lt.count["suite"])
	r.samples = len(plain) + int(n)
	per := func(x float64) float64 { return ratio(x, n) }
	for _, f := range figureSuite {
		r.set(f.metric, per(lt.total[f.metric]))
	}
	r.set("runtime.gc_per_run", mem.gcs()/float64(len(plain)+int(n)))
	r.set("runtime.gc_pause_s_per_run", mem.pause()/float64(len(plain)+int(n)))
	r.set("e2e.runs_per_s", ratio(float64(len(plain)), sum(plain)))
	r.set("e2e.run_s_p90", percentile(plain, 90))
	r.set("trace.overhead_frac", ratio(median(lt.durs["suite"]), median(plain))-1)
	r.set("trace.unattributed_s", per(lt.self["suite"]))
	return r, rec
}
