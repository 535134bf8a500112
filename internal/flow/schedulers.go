package flow

import (
	"errors"
	"fmt"
	"math/rand"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/graph"
	"scream/internal/obs"
	"scream/internal/phys"
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
	agg, err := forest.AggregateDemand(ones)
	if err != nil {
		return 0, err
	}
	demands := make([]int, len(links))
	for i, l := range links {
		demands[i] = agg[l.From]
	}
	s, err := sched.GreedyPhysical(ch, links, demands, sched.ByHeadIDDesc)
	if err != nil {
		return 0, err
	}
	return des.Time(s.Length()) * tm.HandshakeSlot(), nil
}

// NewCentralizedScheduler wraps a centralized schedule construction as an
// epoch scheduler: every epoch runs build over eng, the current link set and
// the backlog snapshot. Its control cost is idealized to zero — a genie
// gathers the backlog and disseminates the schedule for free — which makes
// the centralized disciplines the upper bound the distributed protocols are
// judged against (their re-scheduling pays real SCREAM/election/handshake
// time). It is adaptive under topology dynamics: Rebind re-targets it at the
// repaired link set (the engine is the same object, mutated in place by the
// dynamics world).
func NewCentralizedScheduler(name string, eng phys.Engine, links []phys.Link, build func(eng phys.Engine, links []phys.Link, demands []int) (*sched.Schedule, error)) Scheduler {
	cur := links
	return Scheduler{
		Name: name,
		Build: func(demands []int, _ int) (*sched.Schedule, des.Time, error) {
			s, err := build(eng, cur, demands)
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
// fewer) selects the single-channel engine whatever the radio count.
func NewGreedyScheduler(eng phys.Engine, channels, numRadios int, links []phys.Link) Scheduler {
	ord := sched.ByHeadIDDesc
	name := fmt.Sprintf("greedy(%v,C=%d)", ord, channels)
	if channels <= 1 {
		// GreedyPhysicalMultiEngine at C=1, R=1 is GreedyPhysical.
		name, channels, numRadios = fmt.Sprintf("greedy(%v)", ord), 1, 1
	}
	return NewCentralizedScheduler(name, eng, links,
		func(eng phys.Engine, links []phys.Link, demands []int) (*sched.Schedule, error) {
			return sched.GreedyPhysicalMultiEngine(eng, channels, numRadios, links, demands, ord)
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

// ProtocolSchedulerConfig parameterizes a distributed epoch scheduler.
type ProtocolSchedulerConfig struct {
	Channel *phys.Channel
	Sens    *graph.Graph // sensitivity graph (who hears whom)
	Links   []phys.Link
	K       int // SCREAM length; 0 derives ID(G_S) from Sens
	Timing  core.Timing
	Variant core.Variant
	P       float64 // PDD activation probability
	Seed    int64   // per-epoch RNG seeds derive from this
	// Channels is the number of orthogonal data channels each epoch's
	// protocol run schedules over (0 or 1 = the single-channel protocol);
	// Radios is the per-node radio budget (0 = 1). See core.Config.
	Channels int
	Radios   int
	// Metrics and Trace, when non-nil, are forwarded into every epoch's
	// core.Config — each protocol run then publishes its counters and
	// emits its trace events. See core.Config.Metrics/Trace.
	Metrics *obs.Registry
	Trace   *obs.Tracer
}

// NewProtocolScheduler returns FDD or PDD as an epoch scheduler. Every epoch
// re-runs the full distributed protocol on a fresh ideal backend against the
// backlog snapshot, and the returned control cost is the protocol's real
// simulated execution time (core.Result.ExecTime) — the price the network
// pays, in SCREAMs, elections and handshakes, for re-planning.
//
// The scheduler is adaptive under topology dynamics: Rebind rebuilds the
// backend over the refreshed sensitivity graph with the SCREAM length
// re-validated against the interference diameter restricted to the alive
// nodes (cfg.K acts as a floor). When the alive sensitivity graph is
// disconnected, Rebind returns ErrControlUnavailable and the epoch driver
// keeps the previous schedule until connectivity returns.
func NewProtocolScheduler(cfg ProtocolSchedulerConfig) (Scheduler, error) {
	tm := cfg.Timing
	if tm == (core.Timing{}) {
		tm = core.DefaultTiming()
	}
	k := cfg.K
	if k == 0 {
		k = cfg.Sens.Diameter()
		if k <= 0 {
			return Scheduler{}, fmt.Errorf("flow: sensitivity graph not strongly connected")
		}
	}
	name := cfg.Variant.String()
	if cfg.Variant == core.PDD {
		if cfg.P <= 0 || cfg.P > 1 {
			return Scheduler{}, fmt.Errorf("flow: PDD needs probability in (0,1], got %v", cfg.P)
		}
		name = fmt.Sprintf("PDD(p=%.2f)", cfg.P)
	}
	if cfg.Channels > 1 {
		name = fmt.Sprintf("%s(C=%d)", name, cfg.Channels)
	}
	// Build (and validate) the backend once; every epoch clones it, which
	// shares the sensitivity adjacency but gives the run fresh time
	// accounting and engine state, instead of re-deriving the adjacency and
	// re-checking the interference diameter per epoch.
	proto, err := core.NewIdealBackend(cfg.Channel, cfg.Sens, k, tm, false)
	if err != nil {
		return Scheduler{}, err
	}
	links := cfg.Links
	return Scheduler{
		Name: name,
		Build: func(demands []int, epoch int) (*sched.Schedule, des.Time, error) {
			b := proto.Clone()
			run := core.Config{
				Variant:     cfg.Variant,
				Links:       links,
				Demands:     demands,
				Backend:     b,
				NumChannels: cfg.Channels,
				NumRadios:   cfg.Radios,
				Metrics:     cfg.Metrics,
				Trace:       cfg.Trace,
			}
			if cfg.Variant == core.PDD {
				run.Probability = cfg.P
				run.RNG = rand.New(rand.NewSource(DeriveSeed(cfg.Seed, int64(epoch))))
			}
			res, err := core.Run(run)
			if err != nil {
				return nil, 0, err
			}
			return res.Schedule, res.ExecTime, nil
		},
		Rebind: func(t Topology) error {
			// cfg.K is a floor; the backend raises the SCREAM length to the
			// interference diameter among the alive nodes when needed.
			b, err := core.NewIdealBackendAmong(cfg.Channel, t.Sens, t.Alive, cfg.K, tm)
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
