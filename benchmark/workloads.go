package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"scream"
	"scream/internal/flow"
)

// kind selects how a workload's unit is driven.
type kind int

const (
	flowRun   kind = iota // one scream.Run of a spec file
	serveRun              // one screamd session, POST to result event
	figureRun             // one pass of the quick figure suite
)

// workload is one named input set. Why each exists is recorded in
// BENCHMARK.json and README.md.
type workload struct {
	name string
	kind kind
	// inputs is the number of distinct seeds a pass draws from -seed at the
	// reference length (-seconds 10): flow runs, or serve bodies. Counts
	// such as allocations and goodput are exact for a given input, so their
	// spread between seed sets falls with the number of inputs only.
	inputs int
	// repeats is how often a timed pass runs each probe seed (flow), sends
	// each body (serve) or runs the suite (figures). Times keep the fastest
	// repeat: load from outside the process comes in bursts shorter than a
	// run's spacing, so it slows some repeats of an input but rarely all.
	repeats int
}

var workloads = []workload{
	{"fdd-grid64", flowRun, 500, 5},
	{"greedy-dense256", flowRun, 400, 5},
	{"greedy-spatial256", flowRun, 70, 3},
	{"greedy-churn64", flowRun, 350, 5},
	{"serve-golden", serveRun, 500, 12},
	{"figures-quick", figureRun, 0, 4},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// plan sizes a pass. Every count is fixed by the workload and -seconds,
// never by elapsed time, so two commits run with the same flags do the same
// work; -seconds scales the counts linearly from their values at 10 s.
type plan struct {
	scale float64
	// probes is the number of inputs per pass, the first ones, that also
	// get the streaming feasibility gate, repeats, and set-up and
	// first-epoch samples.
	probes int
	// warmup is the number of untimed flow runs, serve bodies or figure
	// suites before timing.
	warmup int
	// limit fails a pass that runs longer, so a pathological slowdown ends
	// with an error rather than past the caller's deadline.
	limit time.Duration
	// maxRepeats, when positive, caps the workloads' repeats.
	maxRepeats int
}

func fullPlan(seconds float64) plan {
	return plan{scale: seconds / 10, probes: 20, warmup: 10,
		limit: time.Duration(12 * seconds * float64(time.Second))}
}

// smokePlan runs every gate on the smallest input that exercises it.
func smokePlan() plan {
	return plan{probes: 2, limit: time.Minute, maxRepeats: 2}
}

// repeats is the workload's repeats under the plan's cap.
func (p plan) repeats(w workload) int {
	if p.maxRepeats > 0 {
		return min(w.repeats, p.maxRepeats)
	}
	return w.repeats
}

// inputs is the number of seeds or bodies of a pass; never fewer than the
// probes.
func (p plan) inputs(w workload) int { return max(p.probes, p.scaled(w.inputs)) }

// suites is the number of timed figure suites of a pass.
func (p plan) suites(w workload) int { return max(1, p.scaled(p.repeats(w))) }

func (p plan) scaled(n int) int { return int(math.Round(float64(n) * p.scale)) }

// deadline tracks a pass's limit.
type deadline time.Time

func (p plan) start() deadline { return deadline(time.Now().Add(p.limit)) }

// passed records a failure when the pass has run past its limit.
func (d deadline) passed(r *report) bool {
	if time.Now().After(time.Time(d)) {
		r.fail("pass ran past its time limit")
		return true
	}
	return false
}

// seedSet derives the workload's seeds from the benchmark seed.
func seedSet(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = flow.DeriveSeed(seed, int64(i)) & 0x7fffffff
	}
	return out
}

// specsFor loads the workload's spec file once per seed.
func specsFor(dir string, w workload, seeds []int64) ([]scream.ScenarioSpec, error) {
	spec, err := scream.LoadScenario(filepath.Join(dir, w.name+".json"))
	if err != nil {
		return nil, err
	}
	if spec.Seed != 0 {
		return nil, fmt.Errorf("%s: workload specs carry no seed; the benchmark derives them", w.name)
	}
	out := make([]scream.ScenarioSpec, len(seeds))
	for i, s := range seeds {
		out[i] = spec.Clone()
		out[i].Seed = s
	}
	return out, nil
}

// workloadDir finds the spec directory from the repository root or from the
// benchmark's own directory.
func workloadDir(flagValue string) (string, error) {
	for _, d := range []string{flagValue, "benchmark/workloads", "workloads"} {
		if d == "" {
			continue
		}
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d, nil
		}
	}
	return "", fmt.Errorf("workload specs not found (run from the repository root or pass -workloads)")
}

// memDelta measures allocations and collections across a traced pass.
type memDelta struct{ before, after runtime.MemStats }

func (m *memDelta) start() { runtime.GC(); runtime.ReadMemStats(&m.before) }
func (m *memDelta) stop()  { runtime.ReadMemStats(&m.after) }

func (m *memDelta) gcs() float64 { return float64(m.after.NumGC - m.before.NumGC) }
func (m *memDelta) pause() float64 {
	return float64(m.after.PauseTotalNs-m.before.PauseTotalNs) / 1e9
}

// allocCounter sums heap allocations over the stretches of a pass that run
// timed units only.
type allocCounter struct {
	mallocs, bytes float64
	units          int
	m0, b0         uint64
}

func (a *allocCounter) resume() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.m0, a.b0 = ms.Mallocs, ms.TotalAlloc
}

func (a *allocCounter) pause(units int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.mallocs += float64(ms.Mallocs - a.m0)
	a.bytes += float64(ms.TotalAlloc - a.b0)
	a.units += units
}

func (a *allocCounter) perUnit(x float64) float64 { return ratio(x, float64(a.units)) }

// liveHeap returns the heap bytes that build's result keeps alive: the
// median of five measurements, because a small mesh holds only a few
// kilobytes and the runtime's own allocations can move one measurement by
// as much. A first build, discarded, keeps one-time package initialization
// out of the count.
func liveHeap(build func() (any, error)) (float64, error) {
	if _, err := build(); err != nil {
		return 0, err
	}
	var xs []float64
	for k := 0; k < 5; k++ {
		var a, b runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&a)
		v, err := build()
		if err != nil {
			return 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&b)
		runtime.KeepAlive(v)
		xs = append(xs, float64(int64(b.HeapAlloc)-int64(a.HeapAlloc)))
	}
	return median(xs), nil
}

// timeBuild times one set-up.
func timeBuild(build func() error) (float64, error) {
	t0 := time.Now()
	err := build()
	return time.Since(t0).Seconds(), err
}

// fastest keeps each input's fastest timing over repeats; 0 marks an input
// without one.
type fastest []float64

func (f fastest) add(i int, d float64) {
	if f[i] == 0 || d < f[i] {
		f[i] = d
	}
}

// median is the median over inputs of each input's fastest timing.
func (f fastest) median() float64 {
	var xs []float64
	for _, d := range f {
		if d > 0 {
			xs = append(xs, d)
		}
	}
	return median(xs)
}
