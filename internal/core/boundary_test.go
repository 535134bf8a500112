package core

// The protocol loop is one loop with two SCREAM boundaries: on a fast-mode
// IdealBackend it settles SCREAMs as word tests on node sets and elections
// as a set's top bit; every other backend gets []bool SCREAMs and bitwise
// elections. These tests pin the two boundaries to each other, and
// pin the loop's allocations.

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
// IdealBackend without being one, which forces the []bool boundary.
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

func observe(t *testing.T, cfg Config, b *IdealBackend, wrap bool) observedRun {
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
						fast, wrapped := run(false), run(true)
						if !reflect.DeepEqual(fast.res, wrapped.res) {
							t.Errorf("results differ: fast %d rounds, %d steps, %d elections, %d screams, %v; wrapped %d, %d, %d, %d, %v",
								fast.res.Rounds, fast.res.Steps, fast.res.Elections, fast.res.Screams, fast.res.ExecTime,
								wrapped.res.Rounds, wrapped.res.Steps, wrapped.res.Elections, wrapped.res.Screams, wrapped.res.ExecTime)
						}
						if !reflect.DeepEqual(fast.events, wrapped.events) {
							t.Errorf("Observer events differ: %d fast, %d wrapped", len(fast.events), len(wrapped.events))
						}
						if !bytes.Equal(fast.trace, wrapped.trace) {
							t.Errorf("traces differ: %d bytes fast, %d wrapped", len(fast.trace), len(wrapped.trace))
						}
						if fast.screams != wrapped.screams || fast.handshakes != wrapped.handshakes || fast.elapsed != wrapped.elapsed {
							t.Errorf("accounting differs: fast %d screams, %d handshakes, %d ticks; wrapped %d, %d, %d",
								fast.screams, fast.handshakes, fast.elapsed, wrapped.screams, wrapped.handshakes, wrapped.elapsed)
						}
						checkActivationsAscend(t, fast.events)
					})
				}
			}
		}
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
		{FDD, 1634},
		{PDD, 1734},
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
