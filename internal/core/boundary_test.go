package core

// The protocol loop is one loop with two boundaries: on a fast-mode
// IdealBackend it settles SCREAMs as word tests on node sets, elections as
// a set's top bit and handshakes on its own slot state; every other backend
// gets []bool SCREAMs, bitwise elections and link-list handshakes, which an
// IdealBackend evaluates with the reference Channel.HandshakeOutcome. These
// tests pin the two boundaries to each other, and pin the loop's
// allocations; FuzzProtocol pins them on generated deployments.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scream/internal/obs"
	"scream/internal/phys"
)

// forwarding is a plain Backend wrapper: it forwards every call to an
// IdealBackend without being one, which forces the []bool boundary and the
// reference handshake.
type forwarding struct{ *IdealBackend }

// protoEvent is one Observer callback, in the order the run made it.
type protoEvent struct {
	kind        string
	round, node int
	from, to    State
	slot        string
}

// observedRun is everything a run exposes: its result, its Observer events,
// its trace bytes and its backend's accounting.
type observedRun struct {
	res        *Result
	events     []protoEvent
	trace      []byte
	screams    int
	handshakes int
	elapsed    int64
}

func observe(t testing.TB, cfg Config, b *IdealBackend, wrap bool) observedRun {
	t.Helper()
	var out observedRun
	var buf bytes.Buffer
	cfg.Backend = b
	if wrap {
		cfg.Backend = forwarding{b}
	}
	cfg.Trace = obs.NewTracer(&buf)
	cfg.Observer = Observer{
		ControllerElected: func(round, node int) {
			out.events = append(out.events, protoEvent{kind: "elected", round: round, node: node})
		},
		StateChange: func(round, node int, from, to State) {
			out.events = append(out.events, protoEvent{kind: "state", round: round, node: node, from: from, to: to})
		},
		SlotSealed: func(round int, links []phys.Link) {
			out.events = append(out.events, protoEvent{kind: "sealed", round: round, slot: fmt.Sprint(links)})
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	out.res, out.trace = res, buf.Bytes()
	out.screams, out.handshakes, out.elapsed = b.ScreamCount(), b.HandshakeCount(), int64(b.Elapsed())
	return out
}

// TestOneLoopTwoBoundaries runs every protocol configuration on a fast
// IdealBackend and on the same backend behind a forwarding wrapper. The two
// runs must be indistinguishable: equal results, the same Observer events in
// the same order, byte-identical traces and equal backend accounting. Each
// step's coin flips must also visit the dormant nodes in ascending order,
// which both boundaries share: a run of DORMANT -> ACTIVE transitions must
// ascend.
func TestOneLoopTwoBoundaries(t *testing.T) {
	fx := gridFixture(t, 5, 61)
	k := fx.net.InterferenceDiameter()
	for _, variant := range []Variant{FDD, PDD} {
		for _, channels := range []int{1, 2, 4} {
			for _, radios := range []int{1, 2} {
				for _, asap := range []bool{false, true} {
					name := fmt.Sprintf("%v/C%dR%d/asap=%v", variant, channels, radios, asap)
					t.Run(name, func(t *testing.T) {
						run := func(wrap bool) observedRun {
							cfg := Config{
								Variant: variant, Links: fx.links, Demands: fx.demands,
								NumChannels: channels, NumRadios: radios, ASAPSeal: asap,
							}
							if variant == PDD {
								cfg.Probability = 0.5
								cfg.RNG = rand.New(rand.NewSource(int64(100*channels + radios)))
							}
							return observe(t, cfg, fx.backend(t, k, false), wrap)
						}
						fast := run(false)
						sameRun(t, fast, "wrapped", run(true))
						checkActivationsAscend(t, fast.events)
					})
				}
			}
		}
	}
}

// sameRun requires other, a run of the same configuration on another
// backend, to be indistinguishable from fast, the run on a bare fast-mode
// IdealBackend: equal results, the same Observer events in the same order,
// byte-identical traces and equal backend accounting.
func sameRun(t testing.TB, fast observedRun, name string, other observedRun) {
	t.Helper()
	if !reflect.DeepEqual(fast.res, other.res) {
		t.Errorf("results differ: fast %d rounds, %d steps, %d elections, %d screams, %v; %s %d, %d, %d, %d, %v",
			fast.res.Rounds, fast.res.Steps, fast.res.Elections, fast.res.Screams, fast.res.ExecTime, name,
			other.res.Rounds, other.res.Steps, other.res.Elections, other.res.Screams, other.res.ExecTime)
	}
	if !reflect.DeepEqual(fast.events, other.events) {
		t.Errorf("Observer events differ: %d fast, %d %s", len(fast.events), len(other.events), name)
	}
	if !bytes.Equal(fast.trace, other.trace) {
		t.Errorf("traces differ: %d bytes fast, %d %s", len(fast.trace), len(other.trace), name)
	}
	if fast.screams != other.screams || fast.handshakes != other.handshakes || fast.elapsed != other.elapsed {
		t.Errorf("accounting differs: fast %d screams, %d handshakes, %d ticks; %s %d, %d, %d",
			fast.screams, fast.handshakes, fast.elapsed, name, other.screams, other.handshakes, other.elapsed)
	}
}

// checkActivationsAscend requires every run of consecutive DORMANT -> ACTIVE
// transitions — one step's SelectActive — to visit nodes in ascending order.
func checkActivationsAscend(t *testing.T, events []protoEvent) {
	t.Helper()
	prev := -1
	for _, e := range events {
		if e.kind != "state" || e.from != Dormant || e.to != Active {
			prev = -1
			continue
		}
		if e.node <= prev {
			t.Fatalf("round %d activates node %d after node %d: SelectActive must visit ascending", e.round, e.node, prev)
		}
		prev = e.node
	}
}

// TestRunAllocations pins a whole FDD and PDD run's allocations on the 8x8
// grid, backend clone included. allocs/op is deterministic, so a change that
// brings back per-run scratch fails here rather than in benchmark noise.
func TestRunAllocations(t *testing.T) {
	fx := gridFixture(t, 8, 1)
	proto := fx.backend(t, 0, false)
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		variant Variant
		max     float64
	}{
		{FDD, 1617},
		{PDD, 1705},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			cfg := Config{Variant: c.variant, Links: fx.links, Demands: fx.demands, Backend: proto.Clone()}
			if c.variant == PDD {
				rng.Seed(1)
				cfg.Probability, cfg.RNG = 0.2, rng
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %v allocs/run", c.variant, allocs)
		if allocs > c.max {
			t.Errorf("%v: %v allocs per run, want at most %v", c.variant, allocs, c.max)
		}
	}
}
