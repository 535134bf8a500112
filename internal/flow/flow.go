// Package flow is the flow-level dynamic traffic simulator: it runs the
// schedules the SCREAM protocols (and baselines) produce over simulated time,
// under continuous packet arrivals.
//
// The static problem the rest of the repository reproduces asks for one
// schedule for one fixed demand vector. This package asks the question the
// related work evaluates schedulers by (Vieira et al., Zhou et al.): what
// goodput, delay and backlog does a scheduler sustain at a given offered
// load? It models:
//
//   - per-link FIFO packet queues with gateway-rooted multi-hop forwarding
//     along the routing forest of internal/route (each non-gateway node owns
//     one upstream link; a packet hops queue to queue until it reaches a
//     gateway);
//   - pluggable arrival processes per source node (internal/traffic: CBR,
//     Poisson, bursty on/off, Zipf hotspot rates);
//   - an epoch driver that alternates *control phases* — re-running a
//     Scheduler against the current backlog snapshot as the demand vector,
//     paying the scheduler's real control cost in simulated time — with
//     *data phases* that drain the queues slot by slot according to the
//     produced schedule;
//   - a metrics layer: delivered goodput, per-packet end-to-end delay
//     percentiles (selected in place once per run, not sorted), peak
//     backlog and control-overhead fraction.
//
// A queue stores 8-byte words in fixed-size blocks that one pool per run
// hands out and takes back (queue.go). A packet whose created and enqueued
// times are equal, as every own arrival's are, is one word, its time; a
// relayed packet is two, ^created then enqueued. Times are never negative,
// so a packet's first word says which kind it is, and both decode to
// exactly the packet pushed, in push order: how a queue is stored changes
// no queue, delay, counter or trace, only the bytes a saturated run holds.
//
// Runs are deterministic: all randomness derives from Config.Seed and the
// epoch driver is sequential. Arrivals need no event per packet: an arrival
// calendar (one record per source, a min-heap on next arrival) runs each due
// source's arrivals as one batch whenever the driver moves its clock. An
// arrival touches only its own source's queue and totals that do not depend
// on order, aliveness changes only at epoch boundaries, and forwarded packets
// are queued only after the advance that reaches their slot's end, so the
// batches leave every queue, counter and peak as one event per arrival in
// time order would. The experiment harness exploits this determinism to fan
// flow cells across workers with bit-identical output (exp.FigFlowLoad).
package flow

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/dynam"
	"scream/internal/graph"
	"scream/internal/obs"
	"scream/internal/phys"
	"scream/internal/rng"
	"scream/internal/route"
	"scream/internal/sched"
	"scream/internal/stats"
	"scream/internal/traffic"
)

// Topology is the view of a changed network handed to adaptive schedulers:
// the repaired forest and its links, the refreshed sensitivity graph and the
// aliveness vector. The channel object itself is stable — the dynamics world
// mutates it in place — so schedulers keep their channel reference.
type Topology struct {
	Forest *route.Forest
	Links  []phys.Link
	Sens   *graph.Graph
	Alive  []bool
}

// Scheduler produces a schedule for a backlog snapshot. Build receives the
// per-link demand vector (aligned with the current link set) and the epoch
// index (for deterministic per-epoch randomness) and returns the schedule
// together with the simulated control-phase time computing it costs the
// network. Distributed schedulers (FDD, PDD) report their real
// core.Result.ExecTime; idealized baselines (centralized greedy, TDMA)
// report zero.
//
// Rebind, when non-nil, marks the scheduler *adaptive*: after a topology
// change the epoch driver calls Rebind with the repaired topology and
// subsequent Build calls receive demands aligned with the new link set. A
// nil Rebind marks a *static* scheduler (e.g. the classical TDMA frame): it
// keeps serving its original link set, transmissions on dead endpoints
// simply fail — the baseline churn resilience is measured against.
type Scheduler struct {
	Name   string
	Build  func(demands []int, epoch int) (*sched.Schedule, des.Time, error)
	Rebind func(t Topology) error
}

// Config parameterizes a dynamic traffic run.
type Config struct {
	// Forest is the gateway-rooted routing forest packets follow.
	Forest *route.Forest
	// Links are the forest's links in owner order (route.Forest.Links());
	// demand snapshots handed to the Scheduler align with this slice.
	Links []phys.Link
	// Scheduler is re-run every epoch against the backlog snapshot.
	Scheduler Scheduler
	// Timing converts schedule slots into simulated time; the zero value
	// uses core.DefaultTiming.
	Timing core.Timing
	// Arrivals holds one arrival process per node; nil entries are silent
	// nodes. Gateways must be nil: gateway-generated traffic needs no
	// wireless hop (Section II of the paper).
	Arrivals []traffic.Arrival
	// Horizon is the simulated duration of the run.
	Horizon des.Time
	// Seed drives every random draw of the run (arrival processes; the
	// Scheduler derives its own randomness from the epoch index).
	Seed int64
	// MaxQueue caps each link queue in packets; arrivals and forwards into
	// a full queue are dropped and counted. 0 means unbounded.
	MaxQueue int
	// MaxService caps the per-link demand handed to the Scheduler each
	// epoch (service quota). Without a cap, an overloaded network's epochs
	// grow with the backlog and re-scheduling becomes arbitrarily rare; a
	// quota bounds epoch length and keeps the control loop responsive.
	// 0 means serve the full backlog snapshot.
	MaxService int
	// FramesPerEpoch replays the epoch's schedule this many times in the
	// data phase before the next control phase (a superframe). Distributed
	// control is expensive — an FDD re-schedule costs two orders of
	// magnitude more simulated time than one data frame — so real STDMA
	// deployments reuse a schedule across many frames; this knob sets the
	// amortization. Packets that arrive mid-epoch ride later replays of
	// the frame (the per-slot eligibility check admits them), so service
	// keeps flowing between control phases. 0 means 1.
	FramesPerEpoch int
	// IdleWait is how long the driver waits between backlog checks when
	// the network is empty; 0 means one handshake slot.
	IdleWait des.Time

	// Dynamics, when non-nil, drives topology churn and mobility during the
	// run. The world must have been built over this run's Forest and an
	// exclusively-owned network whose channel the Scheduler references.
	// Events are consumed at epoch boundaries: queues on freshly dead nodes
	// are dropped (packets on a dead router are physically lost), adaptive
	// schedulers are rebound to the repaired forest, static schedulers keep
	// their original links with dead-endpoint transmissions suppressed.
	Dynamics *dynam.World
	// RepairCost is the simulated control-time charge for reacting to a
	// topology change — detecting it and disseminating the repaired routes
	// (see core.Timing.RepairCost). It is paid when an adaptive scheduler
	// successfully rebinds (not while the control plane is down, and never
	// by a static frame structure, which reacts to nothing). 0 means free
	// repair.
	RepairCost des.Time

	// Metrics, when non-nil, receives live flow-level counters and gauges
	// (offered/delivered/dropped packets, time split in ticks, backlog,
	// delay histogram). Metrics are write-only: the simulation never reads
	// them, so enabling them cannot change any result.
	Metrics *obs.Registry
	// Trace, when non-nil, receives the structured run ▸ epoch ▸
	// schedule_build ▸ slot span hierarchy (plus point events) timestamped in
	// simulated ticks. Like Metrics, tracing is write-only.
	Trace *obs.Tracer
	// Perf, when non-nil, samples *wall-clock* durations of the driver's hot
	// paths — each schedule build and each full epoch — into the
	// scream_perf_* histograms. Samples are write-only (no simulation
	// decision reads a wall-clock value), so results stay deterministic; a
	// nil Perf is the zero-cost disabled path.
	Perf *obs.Perf

	// Ctx, when non-nil, bounds the run in *wall-clock* terms: it is checked
	// once per driver cycle (epoch boundary), and a canceled context aborts
	// the run with an error wrapping ctx.Err(). This is the cancellation
	// hook of interactive callers — a server draining its sessions, a client
	// dropping its connection. A nil Ctx (every batch caller) changes
	// nothing.
	Ctx context.Context
	// OnEpoch, when non-nil, is invoked synchronously after each built
	// epoch's data phase with a progress snapshot — the streaming hook of
	// interactive callers. The callback must treat the update as read-only
	// (EpochUpdate.Schedule is the live schedule, not a copy); the
	// simulation never observes anything the callback does, so streaming
	// cannot change a result.
	OnEpoch func(EpochUpdate)
}

// EpochUpdate is the per-epoch progress snapshot handed to Config.OnEpoch:
// the control phase just paid for and the data phase just drained. Counter
// fields (Offered, Delivered, Dropped, Transmissions) are cumulative since
// run start, so the final update converges on the run's Result.
type EpochUpdate struct {
	// Epoch is the 0-based control/data cycle index.
	Epoch int `json:"epoch"`
	// Now is the simulated time at the end of the epoch's data phase.
	Now des.Time `json:"t"`
	// Demand is the total backlog snapshot the schedule was built for;
	// Slots the resulting schedule length; Control the simulated control
	// time the build cost.
	Demand  int      `json:"demand"`
	Slots   int      `json:"slots"`
	Control des.Time `json:"control"`
	// Backlog is the total queued packets after the data phase.
	Backlog int `json:"backlog"`
	// Cumulative run counters at the end of the epoch.
	Offered       int `json:"offered"`
	Delivered     int `json:"delivered"`
	Dropped       int `json:"dropped"`
	Transmissions int `json:"transmissions"`
	// Schedule is the schedule this epoch built and replayed — the live
	// object, shared with the driver; callers must not mutate it. It is
	// omitted from JSON; streaming servers marshal it separately on demand.
	Schedule *sched.Schedule `json:"-"`
}

// Result is the outcome of a dynamic traffic run.
type Result struct {
	// Offered is the number of packets generated by arrival processes.
	Offered int
	// Delivered is the number of packets that reached a gateway.
	Delivered int
	// Dropped counts packets discarded at full queues (MaxQueue > 0).
	Dropped int
	// Transmissions is the number of (link, slot) hops performed.
	Transmissions int
	// Epochs is the number of control/data cycles run.
	Epochs int

	// Elapsed is the simulated duration (== min(Horizon, actual end)).
	Elapsed des.Time
	// ControlTime is simulated time spent computing schedules.
	ControlTime des.Time
	// DataTime is simulated time spent in data slots.
	DataTime des.Time
	// IdleTime is simulated time with an empty network.
	IdleTime des.Time

	// DelayMean/P50/P95 summarize end-to-end delay of delivered packets.
	DelayMean des.Time
	DelayP50  des.Time
	DelayP95  des.Time

	// PeakBacklog is the maximum total queued packets at any instant;
	// FinalBacklog the total still queued at the horizon.
	PeakBacklog  int
	FinalBacklog int

	// GoodputPps is delivered end-to-end packets per simulated second;
	// GoodputBps the same in payload bits (Timing.DataBytes per packet).
	GoodputPps float64
	GoodputBps float64
	// ControlFraction is ControlTime / Elapsed.
	ControlFraction float64

	// Dynamics / disruption metrics, populated only when Config.Dynamics is
	// set.

	// FailEvents, RecoverEvents and MoveEvents count applied topology
	// events.
	FailEvents, RecoverEvents, MoveEvents int
	// LostOnFailure counts packets dropped from the queues of nodes that
	// died (distinct from Dropped, the queue-cap drops).
	LostOnFailure int
	// Repairs counts applied topology batches (each triggers one forest
	// repair); Rebuilds counts how many of them fell back to a full
	// rebuild (partition or gateway-set change).
	Repairs, Rebuilds int
	// ControlDownEpochs counts data cycles run while the control plane was
	// unavailable (alive sensitivity graph disconnected): the network
	// replays its last disseminated schedule for free until connectivity
	// returns.
	ControlDownEpochs int
	// RepairTime is simulated time charged for change detection and route
	// dissemination (Config.RepairCost per batch).
	RepairTime des.Time

	// PreEventGoodputPps is the delivered goodput at the instant the first
	// topology event batch was applied — the recovery baseline.
	PreEventGoodputPps float64
	// Recovered reports that, after the *last* applied event batch, some
	// epoch boundary saw the goodput measured since that batch reach 90% of
	// PreEventGoodputPps. RecoveryTime is the time from that batch to the
	// boundary (0 when the baseline was zero — nothing to recover).
	Recovered    bool
	RecoveryTime des.Time
	// PeakBacklogDuringOutage is the largest total backlog observed between
	// the first applied event and the recovery point (or the horizon when
	// the network never recovered).
	PeakBacklogDuringOutage int
}

// plane is a run's data plane: a FIFO per node with the pool its blocks
// come from, the totals every admission updates, and the arrival calendar
// that feeds the source queues. A Runner keeps one plane for all its runs,
// and reset readies it for the next.
type plane struct {
	queues   []queue
	blocks   pool
	maxQueue int // per-queue cap, 0 = unbounded
	// alive is the aliveness vector arrivals consult (nil: every node is
	// up). It changes only at epoch boundaries, never inside an advance.
	alive []bool
	m     flowObs

	backlog, peak    int
	offered, dropped int

	// The calendar: one record per source and a binary min-heap on
	// (next arrival, source index) over them. The records past len(srcs),
	// up to its capacity, keep the streams of earlier runs for schedule to
	// re-seed.
	srcs    []source
	due     []due
	horizon des.Time
}

// source is one node's arrival process on the calendar.
type source struct {
	node int
	arr  traffic.Arrival
	rng  *rand.Rand
}

// due is a calendar entry: the next arrival time of srcs[src].
type due struct {
	at  des.Time
	src int
}

func (a due) before(b due) bool { return a.at < b.at || a.at == b.at && a.src < b.src }

// reset readies p for a run over n nodes: every queue the last run left
// gives its blocks back to the pool, and the totals start from zero. The
// queues past len(p.queues), up to its capacity, are always empty: the
// reset that shortened the slice emptied them.
func (p *plane) reset(n, maxQueue int, m flowObs) {
	for i := range p.queues {
		p.queues[i].drop(&p.blocks)
	}
	if cap(p.queues) < n {
		p.queues = make([]queue, n)
	} else {
		p.queues = p.queues[:n]
	}
	p.maxQueue, p.alive, p.m = maxQueue, nil, m
	p.backlog, p.peak, p.offered, p.dropped = 0, 0, 0, 0
}

// enqueue admits pk to node u's queue, or drops it at a full queue.
func (p *plane) enqueue(u int, pk packet) {
	if p.maxQueue > 0 && p.queues[u].len() >= p.maxQueue {
		p.dropped++
		p.m.dropped.Inc()
		return
	}
	p.queues[u].push(&p.blocks, pk)
	p.backlog++
	if p.backlog > p.peak {
		p.peak = p.backlog
	}
}

// arrive offers a packet generated at node u at time at. A dead router
// generates nothing; its process keeps ticking so traffic resumes when the
// node recovers.
func (p *plane) arrive(u int, at des.Time) {
	if p.alive != nil && !p.alive[u] {
		return
	}
	p.offered++
	p.m.offered.Inc()
	p.enqueue(u, packet{created: at, enqueued: at})
}

// next draws the arrival that follows one at time at, at least one tick
// later. ok is false at or beyond the horizon, where the source stops.
func (s *source) next(at, horizon des.Time) (des.Time, bool) {
	t := s.arr.Next(at, horizon, s.rng)
	if t <= at {
		t = at + 1
	}
	return t, t < horizon
}

// schedule puts every non-nil arrival process on the calendar, each with
// its own RNG stream seeded DeriveSeed(seed, node), and draws its first
// arrival from time zero. A source takes the next record and re-seeds the
// stream an earlier run left there, which then draws exactly what a new
// stream would. A source whose first arrival lies past the horizon gives
// its record back.
func (p *plane) schedule(arrivals []traffic.Arrival, seed int64, horizon des.Time) {
	p.horizon = horizon
	p.srcs, p.due = p.srcs[:0], p.due[:0]
	for u, a := range arrivals {
		if a == nil {
			continue
		}
		i := len(p.srcs)
		p.srcs = slices.Grow(p.srcs, 1)[:i+1]
		s := &p.srcs[i]
		s.node, s.arr = u, a
		if s.rng == nil {
			s.rng = rng.New(DeriveSeed(seed, int64(u)))
		} else {
			s.rng.Seed(DeriveSeed(seed, int64(u)))
		}
		if at, ok := s.next(0, horizon); ok {
			p.due = append(p.due, due{at: at, src: i})
		} else {
			p.srcs = p.srcs[:i]
		}
	}
	for i := len(p.due)/2 - 1; i >= 0; i-- {
		p.down(i)
	}
}

// advance runs every arrival due at or before t. It takes the earliest due
// source, runs all of that source's arrivals up to and including t in time
// order, and then fixes its heap position (see the package comment for why
// these batches match one event per arrival).
func (p *plane) advance(t des.Time) {
	for len(p.due) > 0 && p.due[0].at <= t {
		d := &p.due[0]
		s := &p.srcs[d.src]
		ok := true
		for ok && d.at <= t {
			p.arrive(s.node, d.at)
			d.at, ok = s.next(d.at, p.horizon)
		}
		if !ok {
			// The source stopped at the horizon: take it off the heap.
			last := len(p.due) - 1
			p.due[0] = p.due[last]
			p.due = p.due[:last]
		}
		if len(p.due) > 0 {
			p.down(0)
		}
	}
}

// down sifts the entry at index i down to its place in the heap.
func (p *plane) down(i int) {
	h := p.due
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// DeriveSeed mixes a base seed with a stream index into an independent seed,
// decorrelating the derived streams (one per arrival process) from the
// single user-facing Config.Seed.
func DeriveSeed(base int64, stream int64) int64 {
	return int64(rng.SplitMix64(uint64(base)*0x9e3779b9 + uint64(stream)))
}

// buildOwner maps every node to its link index in links (-1 for none) and
// validates the one-to-one node/edge mapping of Section II: every link must
// be the forest's upstream edge of its head, each node owns at most one
// queue, and every forwarding target must itself be drainable (or a
// gateway), or packets forwarded to it would strand forever in a queue no
// demand snapshot ever sees.
func buildOwner(forest *route.Forest, links []phys.Link, n int) ([]int, error) {
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for i, l := range links {
		fl, ok := forest.EdgeOf(l.From)
		if !ok || fl != l {
			return nil, fmt.Errorf("flow: link %v is not the forest's upstream edge of node %d", l, l.From)
		}
		if owner[l.From] != -1 {
			return nil, fmt.Errorf("flow: node %d owns more than one link", l.From)
		}
		owner[l.From] = i
	}
	for _, l := range links {
		if !forest.IsGateway(l.To) && owner[l.To] == -1 {
			return nil, fmt.Errorf("flow: link %v forwards to node %d, which owns no scheduled link", l, l.To)
		}
	}
	return owner, nil
}

// Runner is the data plane of a sequence of runs: the node queues with
// their block pool, the arrival calendar with its sources' random streams,
// and the delay sample. Each run resets what the last one left instead of
// allocating it again, and overwrites reused storage before reading it
// (queues through their read and write indices, streams by re-seeding, the
// sample through its length), so a run's outputs depend on its Config
// alone; its Result, trace and epoch updates share no memory with the
// runner. The zero Runner is ready to use; a Runner is not safe for
// concurrent use.
type Runner struct {
	pl    plane
	delay stats.Sample
}

// Run executes the dynamic traffic simulation to the horizon on a fresh
// Runner.
func Run(cfg Config) (*Result, error) {
	var r Runner
	return r.Run(cfg)
}

// Run executes the dynamic traffic simulation to the horizon, on the data
// plane of the runner's previous run.
func (r *Runner) Run(cfg Config) (*Result, error) {
	if cfg.Forest == nil {
		return nil, fmt.Errorf("flow: nil forest")
	}
	n := cfg.Forest.NumNodes()
	if len(cfg.Arrivals) != n {
		return nil, fmt.Errorf("flow: %d arrival processes for %d nodes", len(cfg.Arrivals), n)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("flow: horizon must be positive, got %v", cfg.Horizon)
	}
	if cfg.Scheduler.Build == nil {
		return nil, fmt.Errorf("flow: no scheduler")
	}
	tm := cfg.Timing
	if tm == (core.Timing{}) {
		tm = core.DefaultTiming()
	}
	dyn := cfg.Dynamics
	if dyn != nil && dyn.Forest() != cfg.Forest {
		return nil, fmt.Errorf("flow: Dynamics world was not built over Config.Forest")
	}
	owner, err := buildOwner(cfg.Forest, cfg.Links, n)
	if err != nil {
		return nil, err
	}
	for u, a := range cfg.Arrivals {
		if a == nil {
			continue
		}
		if cfg.Forest.IsGateway(u) {
			return nil, fmt.Errorf("flow: arrival process attached to gateway %d", u)
		}
		if owner[u] == -1 {
			return nil, fmt.Errorf("flow: source node %d owns no scheduled link", u)
		}
	}

	res := &Result{}
	delay := &r.delay
	delay.Reset(1024)

	// Per-run registry wins (test isolation); otherwise the process default
	// installed by the CLI's observability opt-in, which is nil by default.
	mreg := cfg.Metrics
	if mreg == nil {
		mreg = obs.Default()
	}
	pl := &r.pl
	pl.reset(n, cfg.MaxQueue, newFlowObs(mreg))
	m := &pl.m
	// The run span is the root of the trace. Its begin line carries the
	// static run parameters plus the per-primitive slot costs
	// (scream_slot, hs_slot) — the constants `screamtrace validate` needs to
	// re-derive the protocol timing identity offline from the trace alone.
	var runSpan obs.SpanID
	if cfg.Trace != nil {
		runSpan = cfg.Trace.Begin("run", 0,
			obs.N("nodes", n), obs.N("links", len(cfg.Links)),
			obs.S("sched", cfg.Scheduler.Name), obs.I("horizon", int64(cfg.Horizon)),
			obs.I("scream_slot", int64(tm.ScreamSlot())),
			obs.I("hs_slot", int64(tm.HandshakeSlot())))
	}

	// Arrivals run off the calendar: every clock move first runs the
	// arrivals due by its target. The driver only ever moves the clock
	// forward, and forwards are queued after the advance that reaches their
	// slot's end, so an arrival at exactly that instant still queues ahead
	// of them.
	pl.schedule(cfg.Arrivals, cfg.Seed, cfg.Horizon)
	var clock des.Time
	runUntil := func(t des.Time) {
		pl.advance(t)
		clock = t
	}

	slotDur := tm.HandshakeSlot()
	if slotDur <= 0 {
		return nil, fmt.Errorf("flow: non-positive handshake slot duration %v", slotDur)
	}
	idle := cfg.IdleWait
	if idle <= 0 {
		idle = slotDur
	}
	// idleFor lets arrivals accumulate for d, cut at the horizon, and books
	// the interval as idle time.
	idleFor := func(d des.Time) {
		t0 := clock
		runUntil(min(t0+d, cfg.Horizon))
		res.IdleTime += clock - t0
		m.idleTicks.Add(int64(clock - t0))
	}

	// Topology state: the static path keeps cfg.Forest/cfg.Links for the
	// whole run; under dynamics, adaptive schedulers follow the world's
	// repaired forest while static ones keep the initial view (their
	// transmissions on dead endpoints are suppressed below).
	forest, links := cfg.Forest, cfg.Links
	adaptive := dyn != nil && cfg.Scheduler.Rebind != nil

	// Disruption bookkeeping (see the Result field docs).
	var (
		firstEventSeen   bool
		baseRate         float64
		lastEventAt      des.Time
		deliveredAtEvent int
		recovered        bool
		peakOutage       int
		pendingRebind    bool
		lastSched        *sched.Schedule
	)
	applyChange := func(chg *dynam.Change) {
		res.Repairs++
		if chg.Rebuilt {
			res.Rebuilds++
		}
		res.FailEvents += len(chg.Failed)
		res.RecoverEvents += len(chg.Recovered)
		res.MoveEvents += len(chg.Moved)
		for _, u := range chg.Failed {
			lost := pl.queues[u].drop(&pl.blocks)
			res.LostOnFailure += lost
			m.lostOnFailure.Add(int64(lost))
			pl.backlog -= lost
		}
		if !firstEventSeen {
			firstEventSeen = true
			if sec := clock.Seconds(); sec > 0 {
				baseRate = float64(res.Delivered) / sec
			}
			res.PreEventGoodputPps = baseRate
			if baseRate == 0 {
				recovered, res.Recovered = true, true // nothing to recover
			}
			peakOutage = pl.backlog
		}
		lastEventAt = clock
		deliveredAtEvent = res.Delivered
		if baseRate > 0 {
			recovered, res.Recovered, res.RecoveryTime = false, false, 0
		}
	}
	checkRecovery := func() {
		if !firstEventSeen || recovered {
			return
		}
		if pl.backlog > peakOutage {
			peakOutage = pl.backlog
		}
		window := clock - lastEventAt
		if window <= 0 {
			return
		}
		if rate := float64(res.Delivered-deliveredAtEvent) / window.Seconds(); rate >= 0.9*baseRate {
			recovered, res.Recovered, res.RecoveryTime = true, true, window
		}
	}
	rebind := func() error {
		t := Topology{Forest: dyn.Forest(), Links: dyn.Links(), Sens: dyn.Sens(), Alive: dyn.Alive()}
		if err := cfg.Scheduler.Rebind(t); err != nil {
			if errors.Is(err, ErrControlUnavailable) {
				// Control plane down (alive sensitivity graph disconnected):
				// keep the previous plan, retry every epoch.
				pendingRebind = true
				return nil
			}
			return err
		}
		pendingRebind = false
		forest, links = t.Forest, t.Links
		o, err := buildOwner(forest, links, n)
		if err != nil {
			return err
		}
		owner = o
		return nil
	}

	demands := make([]int, len(links))
	// Per-cycle snapshot of the control phase, consumed by the OnEpoch
	// callback after the data phase.
	var update EpochUpdate
	for clock < cfg.Horizon {
		// Cancellation gate: one channel poll per driver cycle. Batch runs
		// (nil Ctx) skip it entirely.
		if cfg.Ctx != nil {
			select {
			case <-cfg.Ctx.Done():
				return nil, fmt.Errorf("flow: run canceled after %v simulated: %w", clock, cfg.Ctx.Err())
			default:
			}
		}
		// Topology events take effect at epoch boundaries: apply every event
		// due by now, drop dead queues, re-home the routes, and charge the
		// repair dissemination cost in simulated time.
		if dyn != nil {
			chg, err := dyn.AdvanceTo(clock)
			if err != nil {
				return nil, err
			}
			pl.alive = dyn.Alive()
			if chg != nil {
				applyChange(chg)
				// Rebinding is a pure function of the world state, so a
				// retry can only succeed after the next change — attempt it
				// exactly once per applied batch.
				if adaptive {
					if err := rebind(); err != nil {
						return nil, err
					}
					// The repair flood is paid when it actually happens: on
					// the successful rebind, not while the control plane is
					// down.
					if !pendingRebind && cfg.RepairCost > 0 {
						t0 := clock
						rEnd := t0 + cfg.RepairCost
						if rEnd > cfg.Horizon {
							rEnd = cfg.Horizon
						}
						runUntil(rEnd)
						res.RepairTime += clock - t0
						m.repairTicks.Add(int64(clock - t0))
					}
				}
			}
		}
		now := clock
		if now >= cfg.Horizon {
			break
		}
		if pl.backlog == 0 {
			// Empty network: let arrivals accumulate for one idle tick.
			idleFor(idle)
			continue
		}

		// Control phase: snapshot the backlog as the demand vector and pay
		// the scheduler's control cost in simulated time (arrivals keep
		// flowing underneath). While the control plane is down
		// (pendingRebind), no re-planning is possible: the network keeps
		// replaying the last schedule it disseminated, for free.
		var s *sched.Schedule
		built := false
		builtEpoch := false
		var epochSpan obs.SpanID
		var perfStart int64
		if pendingRebind {
			res.ControlDownEpochs++
			m.ctrlDownEp.Inc()
			s = lastSched
			if s == nil || s.Length() == 0 {
				// Control went down before any schedule existed (or the last
				// one is empty): nothing can move until connectivity returns.
				idleFor(idle)
				continue
			}
		} else {
			if len(demands) != len(links) {
				demands = make([]int, len(links))
			}
			for i, l := range links {
				demands[i] = pl.queues[l.From].len()
				if cfg.MaxService > 0 && demands[i] > cfg.MaxService {
					demands[i] = cfg.MaxService
				}
			}
			demand := 0
			if cfg.Trace != nil || cfg.OnEpoch != nil {
				for _, d := range demands {
					demand += d
				}
			}
			// The epoch span covers this whole control+data cycle; the nested
			// schedule_build span covers just the control phase. The tracer's
			// time base is set to the epoch's absolute start so the protocol
			// layer's events (whose backend clock restarts at zero per build)
			// land at absolute simulated time inside the build span.
			var buildSpan obs.SpanID
			if cfg.Trace != nil {
				epochSpan = cfg.Trace.Begin("epoch", int64(now),
					obs.N("epoch", res.Epochs), obs.N("backlog", pl.backlog),
					obs.N("demand", demand))
				buildSpan = cfg.Trace.Begin("schedule_build", int64(now),
					obs.S("sched", cfg.Scheduler.Name))
				cfg.Trace.SetTimeBase(int64(now))
			}
			perfStart = cfg.Perf.Start()
			var ctrl des.Time
			var err error
			s, ctrl, err = cfg.Scheduler.Build(demands, res.Epochs)
			cfg.Perf.Build(perfStart)
			if err != nil {
				return nil, fmt.Errorf("flow: epoch %d (%s): %w", res.Epochs, cfg.Scheduler.Name, err)
			}
			res.Epochs++
			builtEpoch = true
			if ctrl < 0 {
				return nil, fmt.Errorf("flow: negative control cost %v", ctrl)
			}
			lastSched = s
			cEnd := now + ctrl
			if cEnd > cfg.Horizon {
				cEnd = cfg.Horizon
			}
			runUntil(cEnd)
			res.ControlTime += clock - now
			m.epochs.Inc()
			m.controlTicks.Add(int64(clock - now))
			m.schedSlots.Set(int64(s.Length()))
			if cfg.Trace != nil {
				cfg.Trace.End(buildSpan, int64(clock),
					obs.N("slots", s.Length()), obs.I("ctrl", int64(clock-now)))
			}
			if cfg.OnEpoch != nil {
				built = true
				update = EpochUpdate{
					Epoch:    res.Epochs - 1,
					Demand:   demand,
					Slots:    s.Length(),
					Control:  clock - now,
					Schedule: s,
				}
			}
		}

		// Data phase: drain queues slot by slot, replaying the schedule
		// FramesPerEpoch times. A link transmits the head of its queue if
		// that packet was enqueued by the slot's start (transmissions occupy
		// the full slot). Packets forwarded to the parent become eligible
		// from the instant the slot ends, so a packet can ride multiple hops
		// within one epoch when its links' slots are ordered favorably, and
		// mid-epoch arrivals are served by later frame replays — exactly
		// like a real pipeline under a persistent schedule.
		frames := cfg.FramesPerEpoch
		if frames <= 0 {
			frames = 1
		}
	data:
		for r := 0; r < frames; r++ {
			for i := 0; i < s.Length(); i++ {
				t0 := clock
				if t0+slotDur > cfg.Horizon {
					break data // the slot would not complete before the horizon
				}
				runUntil(t0 + slotDur)
				res.DataTime += slotDur
				m.dataTicks.Add(int64(slotDur))
				for _, l := range s.Slot(i) {
					if dyn != nil {
						// Dead endpoints cannot transmit or ACK, and a link
						// the current forest no longer owns (a stale slot
						// from before a reroute, or a static scheduler's
						// frame) moves nothing.
						if !dyn.IsAlive(l.From) || !dyn.IsAlive(l.To) {
							continue
						}
						if oi := owner[l.From]; oi < 0 || links[oi] != l {
							continue
						}
					}
					q := &pl.queues[l.From]
					if q.len() == 0 || q.peek().enqueued > t0 {
						continue // allocation outran the queue; idle slot share
					}
					p := q.pop(&pl.blocks)
					pl.backlog--
					res.Transmissions++
					m.transmissions.Inc()
					if forest.IsGateway(l.To) {
						res.Delivered++
						m.delivered.Inc()
						m.delay.Observe((clock - p.created).Seconds())
						delay.Add((clock - p.created).Seconds())
					} else {
						p.enqueued = clock
						pl.enqueue(l.To, p)
					}
				}
			}
		}
		checkRecovery()
		m.backlog.Set(int64(pl.backlog))
		m.backlogPeak.Max(int64(pl.peak))
		if builtEpoch {
			// The epoch's data phase is drained: close the span with the
			// cumulative run counters (monotone across epoch ends — one of
			// the invariants `screamtrace validate` replays offline).
			if cfg.Trace != nil {
				cfg.Trace.End(epochSpan, int64(clock),
					obs.N("offered", pl.offered), obs.N("delivered", res.Delivered),
					obs.N("dropped", pl.dropped), obs.N("backlog", pl.backlog))
			}
			cfg.Perf.Epoch(perfStart)
		}
		if built {
			// The data phase is over: complete the snapshot with the state
			// the epoch left behind and hand it to the streaming caller.
			update.Now = clock
			update.Backlog = pl.backlog
			update.Offered = pl.offered
			update.Delivered = res.Delivered
			update.Dropped = pl.dropped
			update.Transmissions = res.Transmissions
			cfg.OnEpoch(update)
		}

		if clock == now {
			if dyn != nil {
				if _, ok := dyn.NextEventAt(); ok {
					// Nothing schedulable right now, but the topology will
					// change again: idle-tick forward instead of running out
					// the clock.
					idleFor(idle)
					continue
				}
			}
			// Zero control cost and no slot fits before the horizon: run
			// out the clock instead of re-scheduling forever.
			idleFor(cfg.Horizon - now)
		}
	}

	res.Elapsed = clock
	res.Offered = pl.offered
	res.Dropped = pl.dropped
	res.FinalBacklog = pl.backlog
	res.PeakBacklog = pl.peak
	m.backlog.Set(int64(pl.backlog))
	m.backlogPeak.Max(int64(pl.peak))
	res.PeakBacklogDuringOutage = peakOutage
	if delay.N() > 0 {
		// The mean sums in delivery order, so read it before the selection
		// reorders the sample.
		res.DelayMean = des.FromSeconds(delay.Mean())
		q := delay.Percentiles(50, 95)
		res.DelayP50 = des.FromSeconds(q[0])
		res.DelayP95 = des.FromSeconds(q[1])
	}
	if sec := res.Elapsed.Seconds(); sec > 0 {
		res.GoodputPps = float64(res.Delivered) / sec
		res.GoodputBps = float64(res.Delivered*tm.DataBytes*8) / sec
		res.ControlFraction = res.ControlTime.Seconds() / sec
	}
	// The run span closes last, carrying the packet-conservation ledger
	// (offered == delivered + dropped + lost + backlog — the PR 7 invariant,
	// now checkable offline from the trace alone) and the delay percentiles.
	if cfg.Trace != nil {
		cfg.Trace.End(runSpan, int64(clock),
			obs.N("offered", res.Offered), obs.N("delivered", res.Delivered),
			obs.N("dropped", res.Dropped), obs.N("lost", res.LostOnFailure),
			obs.N("backlog", pl.backlog), obs.N("epochs", res.Epochs),
			obs.I("delay_p50", int64(res.DelayP50)), obs.I("delay_p95", int64(res.DelayP95)))
	}
	return res, nil
}
