package flow

import (
	"errors"
	"fmt"
	"strings"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/phys"
	"scream/internal/rng"
	"scream/internal/route"
	"scream/internal/sched"
)

// ErrControlUnavailable reports that an adaptive scheduler cannot re-plan on
// the current topology — the sensitivity graph is disconnected among the
// alive nodes, so SCREAM (and with it any distributed control) cannot reach
// every participant. The epoch driver reacts by keeping the previous
// schedule and retrying at the next epoch, exactly what a real deployment
// whose control plane is down would do.
var ErrControlUnavailable = errors.New("flow: distributed control unavailable on current topology")

// FrameTime returns the static-capacity reference of a mesh: the duration of
// one greedy frame delivering one end-to-end packet per non-gateway node
// (demands aggregated over the forest, head-ID ordering, one handshake slot
// per schedule slot). A per-node arrival rate of x/FrameTime offers x times
// the static schedule's sustainable load — the x axis of the load sweeps.
func FrameTime(ch phys.Engine, forest *route.Forest, links []phys.Link, tm core.Timing) (des.Time, error) {
	ones := make([]int, forest.NumNodes())
	for i := range ones {
		ones[i] = 1
	}
	for _, g := range forest.Gateways() {
		ones[g] = 0
	}
	demands, err := forest.LinkDemands(links, ones)
	if err != nil {
		return 0, err
	}
	s, err := sched.GreedyPhysical(ch, links, demands, sched.ByHeadIDDesc)
	if err != nil {
		return 0, err
	}
	return des.Time(s.Length()) * tm.HandshakeSlot(), nil
}

// NewCentralizedScheduler wraps a centralized schedule construction as an
// epoch scheduler: every epoch runs build over eng, the current link set and
// the backlog snapshot, on a sched.Builder the scheduler owns for the whole
// run, so each build reuses the slot states of the last. Its control cost
// is idealized to zero — a genie gathers the backlog and disseminates the
// schedule for free — which makes the centralized disciplines the upper
// bound the distributed protocols are judged against (their re-scheduling
// pays real SCREAM/election/handshake time). It is adaptive under topology
// dynamics: Rebind re-targets it at the repaired link set (the engine is the
// same object, mutated in place by the dynamics world).
func NewCentralizedScheduler(name string, eng phys.Engine, links []phys.Link, build func(b *sched.Builder, eng phys.Engine, links []phys.Link, demands []int) (*sched.Schedule, error)) Scheduler {
	cur := links
	b := new(sched.Builder)
	return Scheduler{
		Name: name,
		Build: func(demands []int, _ int) (*sched.Schedule, des.Time, error) {
			s, err := build(b, eng, cur, demands)
			return s, 0, err
		},
		Rebind: func(t Topology) error {
			cur = t.Links
			return nil
		},
	}
}

// NewGreedyScheduler returns the GreedyPhysical baseline (head-ID order, the
// order FDD emulates) as a centralized epoch scheduler over channels
// orthogonal copies of eng with numRadios radios per node. One channel (or
// fewer) is GreedyPhysical whatever the radio count.
func NewGreedyScheduler(eng phys.Engine, channels, numRadios int, links []phys.Link) Scheduler {
	ord := sched.ByHeadIDDesc
	name := fmt.Sprintf("greedy(%v,C=%d)", ord, channels)
	if channels <= 1 {
		name, channels = fmt.Sprintf("greedy(%v)", ord), 1
	}
	return NewCentralizedScheduler(name, eng, links,
		func(b *sched.Builder, eng phys.Engine, links []phys.Link, demands []int) (*sched.Schedule, error) {
			return b.GreedyPhysicalMulti(eng, channels, numRadios, links, demands, ord)
		})
}

// NewTDMAScheduler returns the classical TDMA baseline: frames that give
// every backlogged link exactly one position, repeated until the snapshot is
// served. No control traffic is needed (the frame structure is static) and
// there is no spatial reuse — the schedule the paper's improvement metric is
// measured against, run dynamically.
//
// With one channel every position is a singleton slot. With more, the frame
// keeps the single-channel scan order but consecutive backlogged links pack
// into one slot — one link per channel — until the slot's channels run out
// or an endpoint's radio budget is exhausted, at which point the slot
// flushes. One transmission per channel per slot is always SINR-feasible
// within its channel, so the baseline still needs no interference
// information.
func NewTDMAScheduler(links []phys.Link, channels, numRadios int) Scheduler {
	if channels < 1 {
		channels = 1
	}
	if numRadios < 1 {
		numRadios = 1
	}
	name := "tdma"
	// A link's position in its slot is its channel. Single-channel schedules
	// record no assignment, so they encode without a "chans" key.
	var chanIdx []int
	if channels > 1 {
		name = fmt.Sprintf("tdma(C=%d)", channels)
		chanIdx = make([]int, channels)
		for c := range chanIdx {
			chanIdx[c] = c
		}
	}
	return Scheduler{
		Name: name,
		Build: func(demands []int, _ int) (*sched.Schedule, des.Time, error) {
			if len(demands) != len(links) {
				return nil, 0, fmt.Errorf("flow: %d demands for %d links", len(demands), len(links))
			}
			remaining := append([]int(nil), demands...)
			left := 0
			for _, d := range remaining {
				if d < 0 {
					return nil, 0, fmt.Errorf("flow: negative demand %d", d)
				}
				left += d
			}
			s := sched.NewSchedule()
			// The slot under construction lives on the stack: Append* copy it.
			var buf [8]phys.Link
			slot := buf[:0]
			flush := func() {
				switch {
				case len(slot) == 0:
					return
				case chanIdx == nil:
					s.AppendSlot(slot)
				default:
					s.AppendSlotAssigned(slot, chanIdx[:len(slot)])
				}
				slot = slot[:0]
			}
			for left > 0 {
				for i, l := range links {
					if remaining[i] <= 0 {
						continue
					}
					if len(slot) >= channels || radiosUsed(slot, l.From) >= numRadios || radiosUsed(slot, l.To) >= numRadios {
						flush()
					}
					slot = append(slot, l)
					remaining[i]--
					left--
				}
				flush() // frame boundary: positions never pack across scans
			}
			return s, 0, nil
		},
	}
}

// radiosUsed counts the links of slot that node u is an endpoint of.
func radiosUsed(slot []phys.Link, u int) int {
	n := 0
	for _, l := range slot {
		if l.From == u || l.To == u {
			n++
		}
	}
	return n
}

// NewProtocolScheduler returns variant v (FDD or PDD) as an epoch scheduler.
// The protocols simulate real reception, so env's engine must be the exact
// dense channel. Every epoch re-runs the full distributed protocol on a
// fresh ideal backend against the backlog snapshot, and the returned control
// cost is the protocol's real simulated execution time (core.Result.ExecTime)
// — the price the network pays, in SCREAMs, elections and handshakes, for
// re-planning.
//
// The scheduler is adaptive under topology dynamics: Rebind rebuilds the
// backend over the refreshed sensitivity graph with the SCREAM length
// re-validated against the interference diameter restricted to the alive
// nodes (env.K acts as a floor). When the alive sensitivity graph is
// disconnected, Rebind returns ErrControlUnavailable and the epoch driver
// keeps the previous schedule until connectivity returns.
func NewProtocolScheduler(env SchedulerEnv, v core.Variant) (Scheduler, error) {
	if _, dense := env.engine().(*phys.Channel); !dense {
		return Scheduler{}, fmt.Errorf("flow: scheduler %q requires the dense interference engine", strings.ToLower(v.String()))
	}
	tm := env.Timing
	if tm == (core.Timing{}) {
		tm = core.DefaultTiming()
	}
	name := v.String()
	if v == core.PDD {
		if env.P <= 0 || env.P > 1 {
			return Scheduler{}, fmt.Errorf("flow: PDD needs probability in (0,1], got %v", env.P)
		}
		name = fmt.Sprintf("PDD(p=%.2f)", env.P)
	}
	if env.Channels > 1 {
		name = fmt.Sprintf("%s(C=%d)", name, env.Channels)
	}
	// Build (and validate) the backend once; every epoch clones it, which
	// shares the sensitivity adjacency but gives the run fresh time
	// accounting and engine state, instead of re-deriving the adjacency and
	// re-checking the interference diameter per epoch.
	proto, err := core.NewIdealBackend(env.Channel, env.Sens, env.K, tm, false)
	if err != nil {
		return Scheduler{}, err
	}
	links := env.Links
	return Scheduler{
		Name: name,
		Build: func(demands []int, epoch int) (*sched.Schedule, des.Time, error) {
			b := proto.Clone()
			run := core.Config{
				Variant:     v,
				Links:       links,
				Demands:     demands,
				Backend:     b,
				NumChannels: env.Channels,
				NumRadios:   env.Radios,
				Metrics:     env.Metrics,
				Trace:       env.Trace,
			}
			if v == core.PDD {
				run.Probability = env.P
				run.RNG = rng.New(DeriveSeed(env.Seed, int64(epoch)))
			}
			res, err := core.Run(run)
			if err != nil {
				return nil, 0, err
			}
			return res.Schedule, res.ExecTime, nil
		},
		Rebind: func(t Topology) error {
			// env.K is a floor; the backend raises the SCREAM length to the
			// interference diameter among the alive nodes when needed.
			b, err := core.NewIdealBackendAmong(env.Channel, t.Sens, t.Alive, env.K, tm)
			if err != nil {
				if errors.Is(err, core.ErrSensDisconnected) {
					return ErrControlUnavailable
				}
				return err
			}
			proto = b
			links = t.Links
			return nil
		},
	}, nil
}
