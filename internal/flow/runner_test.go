package flow

// Tests for Runner: a run on a reused runner must equal flow.Run of the same
// configuration in everything it reports, whatever the runner ran before,
// and a warmed runner must reuse its data plane instead of allocating one.

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/dynam"
	"scream/internal/obs"
	"scream/internal/sched"
	"scream/internal/traffic"
)

// observed is everything a run reports: its result or error, its trace and
// its epoch updates, each update's schedule captured as JSON when the
// update arrives.
type observed struct {
	res       *Result
	err       string
	trace     []byte
	epochs    []EpochUpdate
	schedules []string
}

// observe runs cfg through run with a tracer and an OnEpoch hook attached.
func observe(t *testing.T, cfg Config, run func(Config) (*Result, error)) observed {
	t.Helper()
	var (
		o   observed
		buf bytes.Buffer
	)
	cfg.Trace = obs.NewTracer(&buf)
	cfg.OnEpoch = func(u EpochUpdate) {
		js, err := json.Marshal(u.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		u.Schedule = nil
		o.epochs = append(o.epochs, u)
		o.schedules = append(o.schedules, string(js))
	}
	res, err := run(cfg)
	if err != nil {
		o.err = err.Error()
	}
	if err := cfg.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	o.res, o.trace = res, buf.Bytes()
	return o
}

// poissonAt attaches a Poisson source of the given per-node rate to every
// non-gateway node.
func (tb *testbed) poissonAt(t testing.TB, rate float64) []traffic.Arrival {
	t.Helper()
	arr := make([]traffic.Arrival, tb.forest.NumNodes())
	for u := range arr {
		if tb.forest.IsGateway(u) {
			continue
		}
		p, err := traffic.NewPoisson(rate)
		if err != nil {
			t.Fatal(err)
		}
		arr[u] = p
	}
	return arr
}

// failingAt wraps s so that its build at epoch fails.
func failingAt(s Scheduler, epoch int) Scheduler {
	build := s.Build
	s.Build = func(demands []int, e int) (*sched.Schedule, des.Time, error) {
		if e == epoch {
			return nil, 0, errors.New("scheduler down")
		}
		return build(demands, e)
	}
	return s
}

// TestRunnerReuseMatchesRun runs a mixed sequence on one Runner: grids that
// grow and shrink, a saturated run that ends with backlog, queue-cap drops,
// churn that drops queues, waypoint mobility, a scheduler that fails at
// epoch 3 and the run after it, and a run with no sources. Every run must
// equal flow.Run of the same configuration: result, trace bytes and epoch
// updates. Each step also checks that flow.Run shows what the step is for.
func TestRunnerReuseMatchesRun(t *testing.T) {
	tm := core.DefaultTiming()
	small, mid, big := newTestbed(t, 3, 3), newTestbed(t, 4, 4), newReuseTestbed(t)
	smallFrame, midFrame, bigFrame := small.frameTime(t, tm), mid.frameTime(t, tm), big.frameTime(t, tm)

	// Each step builds a fresh Config per call: arrival processes and
	// dynamics worlds carry state, so the two runs must not share them.
	light := func(seed int64) func(*testing.T) Config {
		return func(t *testing.T) Config {
			return Config{
				Forest: small.forest, Links: small.links, Scheduler: small.greedy(), Timing: tm,
				Arrivals: small.cbrAt(t, 0.5/smallFrame.Seconds()), Horizon: 80 * smallFrame,
				Seed: seed, MaxService: 8,
			}
		}
	}
	saturated := func(seed int64) func(*testing.T) Config {
		return func(t *testing.T) Config {
			return Config{
				Forest: big.forest, Links: big.links, Scheduler: big.greedy(), Timing: tm,
				Arrivals: big.poissonAt(t, 4/bigFrame.Seconds()), Horizon: 60 * bigFrame,
				Seed: seed, MaxService: 8, FramesPerEpoch: 8,
			}
		}
	}
	dynamic := func(dc dynam.Config, load float64, seed int64) func(*testing.T) Config {
		return func(t *testing.T) Config {
			tbD, w := dynTestbed(t, mid, dc)
			return Config{
				Forest: tbD.forest, Links: tbD.links, Scheduler: tbD.greedy(), Timing: tm,
				Arrivals: tbD.cbrAt(t, load/midFrame.Seconds()), Horizon: dc.Horizon,
				Seed: seed, MaxService: 8, FramesPerEpoch: 8,
				Dynamics: w, RepairCost: tm.RepairCost(4),
			}
		}
	}
	steps := []struct {
		name  string
		cfg   func(*testing.T) Config
		shows func(o observed) bool
	}{
		{"small light", light(1), func(o observed) bool { return o.res.Delivered > 0 }},
		{"big saturated", saturated(2), func(o observed) bool { return o.res.FinalBacklog > 0 }},
		{"small capped", func(t *testing.T) Config {
			cfg := light(3)(t)
			cfg.Arrivals, cfg.MaxQueue = small.cbrAt(t, 3/smallFrame.Seconds()), 4
			return cfg
		}, func(o observed) bool { return o.res.Dropped > 0 }},
		{"mid churn", dynamic(dynam.Config{
			FailRate: 6, MeanDowntime: 30 * des.Millisecond, Horizon: 100 * midFrame, Seed: 5,
		}, 0.6, 9), func(o observed) bool { return o.res.LostOnFailure > 0 }},
		{"mid waypoint", dynamic(dynam.Config{
			Mobility:     dynam.RandomWaypoint{SpeedMps: 8, Pause: 10 * des.Millisecond},
			MoveInterval: 5 * des.Millisecond, Horizon: 80 * midFrame, Seed: 11,
		}, 0.5, 4), func(o observed) bool { return o.res.MoveEvents > 0 }},
		{"big failing", func(t *testing.T) Config {
			cfg := saturated(6)(t)
			cfg.Scheduler = failingAt(cfg.Scheduler, 3)
			return cfg
		}, func(o observed) bool { return o.res == nil && o.err != "" && len(o.epochs) == 3 }},
		{"small after failure", light(7), func(o observed) bool { return o.res.Delivered > 0 }},
		{"mid silent", func(t *testing.T) Config {
			return Config{
				Forest: mid.forest, Links: mid.links, Scheduler: mid.greedy(), Timing: tm,
				Arrivals: make([]traffic.Arrival, mid.forest.NumNodes()), Horizon: 20 * midFrame, Seed: 8,
			}
		}, func(o observed) bool { return o.res.Offered == 0 && o.res.IdleTime == o.res.Elapsed }},
		{"big saturated again", saturated(9), func(o observed) bool { return o.res.FinalBacklog > 0 }},
	}

	var r Runner
	for _, st := range steps {
		got := observe(t, st.cfg(t), r.Run)
		want := observe(t, st.cfg(t), Run)
		if !st.shows(want) {
			t.Fatalf("%s: the run does not show what the step is for: %+v (error %q)", st.name, want.res, want.err)
		}
		if got.err != want.err {
			t.Errorf("%s: runner error %q, flow.Run error %q", st.name, got.err, want.err)
		}
		if !reflect.DeepEqual(got.res, want.res) {
			t.Errorf("%s: runner result\n%+v\nflow.Run result\n%+v", st.name, got.res, want.res)
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("%s: runner trace (%d bytes) differs from flow.Run's (%d bytes)", st.name, len(got.trace), len(want.trace))
		}
		if !reflect.DeepEqual(got.epochs, want.epochs) || !reflect.DeepEqual(got.schedules, want.schedules) {
			t.Errorf("%s: runner epoch updates differ from flow.Run's (%d vs %d updates)", st.name, len(got.epochs), len(want.epochs))
		}
	}
}

// TestRunnerRepeatReusesPlane pins what reuse saves. The scheduler replays
// one prebuilt schedule and allocates nothing, so a warmed runner's repeat
// of a saturated run allocates only what Run allocates outside the data
// plane: the owner map, the Result, the demand vector and the two
// percentiles. No queue block, random stream, register or delay storage.
// flow.Run, on a fresh runner each call, pays for all of them every time.
func TestRunnerRepeatReusesPlane(t *testing.T) {
	const outsidePlane = 4
	tb := newReuseTestbed(t)
	tm := core.DefaultTiming()
	frame := tb.frameTime(t, tm)
	demands := make([]int, len(tb.links))
	for i := range demands {
		demands[i] = 1
	}
	frameSched, _, err := tb.greedy().Build(demands, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Forest: tb.forest, Links: tb.links, Timing: tm,
		Scheduler: Scheduler{Name: "fixed", Build: func([]int, int) (*sched.Schedule, des.Time, error) {
			return frameSched, 0, nil
		}},
		// Poisson sources are stateless, so every run can share them.
		Arrivals: tb.poissonAt(t, 4/frame.Seconds()), Horizon: 60 * frame,
		Seed: 3, MaxService: 8, FramesPerEpoch: 8,
	}
	var r Runner
	first, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Saturated, with more deliveries than the delay sample's first 1,024
	// slots and about 240 draws per stream, so every part of the plane
	// grew during the first run.
	if first.FinalBacklog == 0 || first.Delivered <= 1024 {
		t.Fatalf("run not saturated: backlog %d, delivered %d", first.FinalBacklog, first.Delivered)
	}
	warm := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if warm != outsidePlane {
		t.Errorf("warmed runner: %v allocations per run, want %d", warm, outsidePlane)
	}
	fresh := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// At least the queue array, one stream per source, a block slab and the
	// delay storage on top.
	sources := tb.forest.NumNodes() - len(tb.forest.Gateways())
	if floor := outsidePlane + sources + 3; fresh < float64(floor) {
		t.Errorf("flow.Run: %v allocations per run, want at least %d", fresh, floor)
	}
}
