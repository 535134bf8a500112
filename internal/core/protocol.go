package core

import (
	"fmt"
	"math/rand"

	"scream/internal/des"
	"scream/internal/obs"
	"scream/internal/phys"
	"scream/internal/sched"
)

// State is a node's protocol state (Figure 1 of the paper).
type State int

// Node states. TERMINATE is reached by every node simultaneously when the
// controller-existence SCREAM comes back empty.
const (
	Dormant State = iota + 1
	Control
	Active
	Allocated
	Tried
	Complete
	Terminate
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Dormant:
		return "DORMANT"
	case Control:
		return "CONTROL"
	case Active:
		return "ACTIVE"
	case Allocated:
		return "ALLOCATED"
	case Tried:
		return "TRIED"
	case Complete:
		return "COMPLETE"
	case Terminate:
		return "TERMINATE"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Variant selects the active-set strategy.
type Variant int

const (
	// PDD activates each dormant node independently with probability P
	// in every step (Section III-C).
	PDD Variant = iota + 1
	// FDD activates exactly one dormant node per step, chosen by
	// network-wide leader election, which makes the protocol emulate the
	// centralized GreedyPhysical exactly (Section III-D, Theorem 4).
	FDD
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case PDD:
		return "PDD"
	case FDD:
		return "FDD"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Config parameterizes a protocol run.
type Config struct {
	Variant Variant
	// Links[i] is the forest edge owned by node Links[i].From; Demands[i]
	// is its aggregated demand. Nodes that own no link (gateways) simply
	// do not appear as owners.
	Links   []phys.Link
	Demands []int
	// Backend executes SCREAMs and handshake slots (and accounts time).
	Backend Backend
	// IDBits is the ID width for leader election; 0 derives it from the
	// node count (the paper's id_bits = ln n).
	IDBits int
	// Probability is PDD's activation probability p.
	Probability float64
	// RNG drives PDD's coin flips; required for PDD.
	RNG *rand.Rand
	// MaxRounds aborts pathological runs; 0 means 10*TD + 100.
	MaxRounds int
	// ASAPSeal is an extension ablation (not in the paper): seal the slot
	// as soon as no dormant nodes remain instead of running the final
	// empty selection step.
	ASAPSeal bool
	// Observer receives protocol events; zero value disables tracing.
	Observer Observer
	// Metrics, when non-nil, receives per-run counters (rounds, steps,
	// elections, analytic and backend-measured SCREAM/handshake counts,
	// execution ticks). Metrics are write-only: no protocol decision ever
	// reads them, so enabling them cannot change any result.
	Metrics *obs.Registry
	// Trace, when non-nil, receives structured protocol events
	// (controller_elected, handshake, slot_sealed) timestamped in simulated
	// ticks. Like Metrics, tracing is write-only.
	Trace *obs.Tracer
	// NumChannels is the number of orthogonal data channels C; a count of
	// 1 or less is one channel, which is the paper's protocol. Each round
	// seals a slot built in C sequential channel phases; control traffic
	// (SCREAMs, elections) rides the designated control channel (channel 0)
	// at unchanged cost, while data handshakes are evaluated per channel.
	// See DESIGN.md "Multi-channel scheduling".
	NumChannels int
	// NumRadios bounds how many channels a node may be active on per slot
	// (0 means 1). It is ignored on one channel, where it cannot bind.
	NumRadios int
}

// Result is the outcome of a protocol run.
type Result struct {
	Schedule *sched.Schedule
	// Rounds is the number of rounds = slots scheduled.
	Rounds int
	// Steps is the total number of greedy augmentation steps across all
	// rounds (each costs one handshake slot plus two SCREAMs, plus an
	// election in FDD).
	Steps int
	// Elections is the number of leader elections run.
	Elections int
	// Screams is the number of SCREAM primitives run.
	Screams int
	// ExecTime is the total simulated protocol execution time.
	ExecTime des.Time
}

// protoRun is the validated, initialized state of one protocol run: the
// owner/link mapping, election identities, round budget, node states and the
// counted primitive wrappers. run drives it through the protocol loop, the
// same for every channel count.
type protoRun struct {
	cfg         Config
	n           int
	linkOf      []int // owner node -> link index, -1 for none
	totalDemand int
	idBits      int
	ids         []uint64
	maxRounds   int

	res       *Result
	state     []State
	remaining []int
	round     int
}

// newProtoRun validates the link/demand configuration and initializes the
// shared run state.
func newProtoRun(cfg Config) (*protoRun, error) {
	n := cfg.Backend.NumNodes()
	linkOf := make([]int, n)
	for i := range linkOf {
		linkOf[i] = -1
	}
	totalDemand := 0
	for i, l := range cfg.Links {
		if l.From < 0 || l.From >= n || l.To < 0 || l.To >= n {
			return nil, fmt.Errorf("core: link %v out of range for %d nodes", l, n)
		}
		if linkOf[l.From] != -1 {
			return nil, fmt.Errorf("core: node %d owns more than one link", l.From)
		}
		if cfg.Demands[i] < 0 {
			return nil, fmt.Errorf("core: link %v has negative demand", l)
		}
		linkOf[l.From] = i
		totalDemand += cfg.Demands[i]
	}

	idBits := cfg.IDBits
	if idBits == 0 {
		idBits = IDBitsFor(n)
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 10*totalDemand + 100
	}

	p := &protoRun{
		cfg: cfg, n: n, linkOf: linkOf, totalDemand: totalDemand,
		idBits: idBits, ids: ids, maxRounds: maxRounds,
		res:       &Result{Schedule: sched.NewSchedule()},
		state:     make([]State, n),
		remaining: append([]int(nil), cfg.Demands...),
	}
	for u := 0; u < n; u++ {
		if linkOf[u] >= 0 && p.remaining[linkOf[u]] > 0 {
			p.state[u] = Dormant
		} else {
			p.state[u] = Complete
		}
	}
	return p, nil
}

func (p *protoRun) setState(u int, to State) {
	if p.state[u] == to {
		return
	}
	if p.cfg.Observer.StateChange != nil {
		p.cfg.Observer.StateChange(p.round, u, p.state[u], to)
	}
	p.state[u] = to
}

func (p *protoRun) scream(vars []bool) []bool {
	p.res.Screams++
	return p.cfg.Backend.Scream(vars)
}

// screamConsensus runs a SCREAM whose result steers control flow. With
// a correct SCREAM (K >= ID, adequate SMBytes, guarded slots) every
// node computes the same OR; if views diverge the distributed protocol
// has genuinely broken, which we surface as an error instead of
// silently picking a view (this is what the failure-injection tests
// observe when K < ID or the skew guard is violated).
func (p *protoRun) screamConsensus(vars []bool, what string) (bool, error) {
	result := p.scream(vars)
	v := result[0]
	for i, r := range result {
		if r != v {
			return false, fmt.Errorf("core: SCREAM divergence on %s: node 0 sees %v, node %d sees %v (K too small or skew guard violated)", what, v, i, r)
		}
	}
	return v, nil
}

func (p *protoRun) elect(participating []bool) int {
	p.res.Elections++
	p.res.Screams += ElectionScreams(p.idBits)
	return LeaderElect(p.cfg.Backend, p.idBits, p.ids, participating)
}

// Run executes the distributed protocol to completion and returns the
// computed schedule with execution statistics. The run is a faithful
// lock-step simulation of all nodes: every SCREAM, election and handshake
// the real protocol would perform is executed against the backend (and
// therefore billed for time), and all control decisions are derived from
// those primitives' outputs only.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Links) != len(cfg.Demands) {
		return nil, fmt.Errorf("core: %d links vs %d demands", len(cfg.Links), len(cfg.Demands))
	}
	switch cfg.Variant {
	case PDD:
		if cfg.Probability <= 0 || cfg.Probability > 1 {
			return nil, fmt.Errorf("core: PDD needs probability in (0,1], got %v", cfg.Probability)
		}
		if cfg.RNG == nil {
			return nil, fmt.Errorf("core: PDD needs an RNG")
		}
	case FDD:
	default:
		return nil, fmt.Errorf("core: unknown variant %v", cfg.Variant)
	}
	p, err := newProtoRun(cfg)
	if err != nil {
		return nil, err
	}
	before := snapshotBackend(cfg.Backend)
	res, err := p.run()
	if err != nil {
		return nil, err
	}
	publishRun(&cfg, res, before)
	traceProtocol(&cfg, res, before)
	return res, nil
}

// run is the protocol loop. Each round elects a controller, builds one slot
// in C = max(NumChannels, 1) sequential channel phases and seals it. Phase ch
// runs the greedy augmentation loop of Section III — SelectActive,
// handshake, verification SCREAM, still-dormant SCREAM — on channel ch among
// the still-dormant nodes; nodes discarded on an earlier channel of the slot
// are revived at the next phase (a crowded channel is not a crowded slot).
// With C = 1 this is exactly the paper's single-channel protocol.
//
// Control traffic — every SCREAM and election — rides the designated control
// channel (channel 0) at unchanged per-primitive cost; the protocol is
// lock-step, so control and data never overlap in time and channel 0 carries
// data placements during data phases like any other channel. The
// controller's own link rides channel 0 from the start of the slot. All
// channels share one physical propagation environment (interference is
// per-channel only), so the backend's HandshakeSlot evaluates each phase's
// links unchanged: a handshake slot never contains links from two channels.
//
// With C > 1 the per-node radio budget gates activation: an active node whose
// own or whose parent's radios are all committed to other channels of this
// slot cannot tune to the phase's channel and is discarded without a
// handshake. With C = 1 there is no gate: an active node that conflicts with
// the slot joins the handshake and fails there, as in the paper.
func (p *protoRun) run() (*Result, error) {
	cfg := p.cfg
	n := p.n
	linkOf := p.linkOf
	b := cfg.Backend
	res := p.res
	state := p.state
	remaining := p.remaining
	channels := max(cfg.NumChannels, 1)
	numRadios := int32(max(cfg.NumRadios, 1))

	// Scratch buffers, reused across steps and rounds and cut from shared
	// backing arrays: the backend's incremental engine makes each handshake
	// O(k·Δ), so the step loop itself must not churn allocations either.
	// chanOf[u] is the channel u's link rides in the slot under
	// construction, -1 until u is allocated or takes control of the slot
	// (neither state is left before the seal), and radios[u] how many of
	// the slot's placements have endpoint u. The seal's buffers are copied
	// by the schedule, so they serve every round.
	flags := make([]bool, 3*n)
	vars, part, hsOK := flags[:n], flags[n:2*n], flags[2*n:]
	counts := make([]int32, 2*n)
	chanOf, radios := counts[:n], counts[n:]
	hsLinks := make([]phys.Link, 0, n)
	hsOwners := make([]int, 0, n)
	var slot []phys.Link
	var slotChans []int
	released := true
	controller := -1

	for ; ; p.round++ {
		if p.round >= p.maxRounds {
			return nil, fmt.Errorf("core: no termination after %d rounds (TD=%d); check feasibility of individual links", p.round, p.totalDemand)
		}

		if released {
			// Controller election among all nodes with pending demand.
			for u := 0; u < n; u++ {
				part[u] = state[u] != Complete
			}
			winner := p.elect(part)
			// Controller-existence SCREAM: the winner (if any) screams.
			for u := range vars {
				vars[u] = u == winner
			}
			exists, err := p.screamConsensus(vars, "controller existence")
			if err != nil {
				return nil, err
			}
			if !exists {
				// Nobody claimed control: every node's demand is
				// satisfied, all transition to TERMINATE.
				break
			}
			controller = winner
			if cfg.Observer.ControllerElected != nil {
				cfg.Observer.ControllerElected(p.round, controller)
			}
			p.traceEmit("controller_elected", obs.N("node", controller))
			p.setState(controller, Control)
		}

		slotSpan := p.beginSlot()

		// GreedyScheduleSlot: reset non-complete, non-control nodes and the
		// slot's channel bookkeeping. The controller's link occupies channel
		// 0 (the control channel it already owns the floor on).
		for u := 0; u < n; u++ {
			if state[u] != Complete && state[u] != Control {
				p.setState(u, Dormant)
			}
			chanOf[u] = -1
			radios[u] = 0
		}
		ctrlLink := cfg.Links[linkOf[controller]]
		chanOf[controller] = 0
		radios[ctrlLink.From]++
		radios[ctrlLink.To]++

		for ch := 0; ch < channels; ch++ {
			if ch > 0 {
				// Revive the nodes discarded on earlier channels of this
				// slot; stop early when nobody is left to try.
				anyLeft := false
				for u := 0; u < n; u++ {
					if state[u] == Tried {
						p.setState(u, Dormant)
					}
					if state[u] == Dormant {
						anyLeft = true
					}
				}
				if !anyLeft {
					break
				}
			}

			for {
				// SelectActive.
				switch cfg.Variant {
				case PDD:
					for u := 0; u < n; u++ {
						if state[u] == Dormant && cfg.RNG.Float64() < cfg.Probability {
							p.setState(u, Active)
						}
					}
				case FDD:
					for u := 0; u < n; u++ {
						part[u] = state[u] == Dormant
					}
					if winner := p.elect(part); winner >= 0 {
						p.setState(winner, Active)
					}
				}

				if channels > 1 {
					// Radio gating: an active node whose endpoints cannot
					// spare a radio for this channel is discarded without a
					// handshake.
					for u := 0; u < n; u++ {
						if state[u] != Active {
							continue
						}
						l := cfg.Links[linkOf[u]]
						if radios[l.From] >= numRadios || radios[l.To] >= numRadios {
							p.setState(u, Tried)
						}
					}
				}

				// Handshake slot over this channel's links: the actives
				// trying it plus the links already allocated on it.
				hsLinks = hsLinks[:0]
				hsOwners = hsOwners[:0]
				for u := 0; u < n; u++ {
					if state[u] == Active || chanOf[u] == int32(ch) {
						hsLinks = append(hsLinks, cfg.Links[linkOf[u]])
						hsOwners = append(hsOwners, u)
					}
				}
				res.Steps++
				outcome := b.HandshakeSlot(hsLinks)

				// Verification SCREAM: edges scheduled on this channel veto
				// when the newcomers' interference broke their handshake.
				// hsOK is only ever read for this step's owners, so stale
				// entries from earlier steps need no clearing.
				for u := range vars {
					vars[u] = false
				}
				for i, u := range hsOwners {
					hsOK[u] = outcome[i]
					if (state[u] == Allocated || state[u] == Control) && !outcome[i] {
						vars[u] = true
					}
				}
				veto, err := p.screamConsensus(vars, "handshake veto")
				if err != nil {
					return nil, err
				}
				if cfg.Trace != nil {
					okCount := 0
					for _, ok := range outcome {
						if ok {
							okCount++
						}
					}
					p.traceEmit("handshake",
						obs.N("links", len(hsLinks)), obs.N("ok", okCount), obs.B("veto", veto))
				}

				// Actives join this channel or are discarded; the same scan
				// raises the still-dormant SCREAM's variables.
				still := false
				for u := 0; u < n; u++ {
					if state[u] == Active {
						if !veto && hsOK[u] {
							p.setState(u, Allocated)
							chanOf[u] = int32(ch)
							l := cfg.Links[linkOf[u]]
							radios[l.From]++
							radios[l.To]++
						} else {
							p.setState(u, Tried)
						}
					}
					vars[u] = state[u] == Dormant
					still = still || vars[u]
				}

				// Still-actives SCREAM: dormant nodes keep the phase open.
				if cfg.ASAPSeal {
					// Extension: the same SCREAM, run only when some node is
					// still dormant, saving the final empty round-trip.
					if !still {
						break
					}
					p.scream(vars)
					continue
				}
				still, err = p.screamConsensus(vars, "still-dormant")
				if err != nil {
					return nil, err
				}
				if !still {
					break
				}
			}
		}

		// Seal the slot: allocated and control links transmit in it, each
		// on its assigned channel. One channel records no assignment.
		slot, slotChans = slot[:0], slotChans[:0]
		for u := 0; u < n; u++ {
			if state[u] == Allocated || state[u] == Control {
				li := linkOf[u]
				slot = append(slot, cfg.Links[li])
				if channels > 1 {
					slotChans = append(slotChans, int(chanOf[u]))
				}
				remaining[li]--
			}
		}
		if channels > 1 {
			res.Schedule.AppendSlotAssigned(slot, slotChans)
		} else {
			res.Schedule.AppendSlot(slot)
		}
		res.Rounds++
		if cfg.Observer.SlotSealed != nil {
			cfg.Observer.SlotSealed(p.round, res.Schedule.Slot(res.Rounds-1))
		}
		p.endSlot(slotSpan, len(slot))

		// Control-release SCREAM: the controller announces whether its
		// demand is now satisfied.
		ctrlDone := remaining[linkOf[controller]] == 0
		for u := range vars {
			vars[u] = u == controller && ctrlDone
		}
		rel, err := p.screamConsensus(vars, "control release")
		if err != nil {
			return nil, err
		}
		released = rel

		// State transitions for the next round.
		for u := 0; u < n; u++ {
			li := linkOf[u]
			if li >= 0 && remaining[li] == 0 {
				p.setState(u, Complete)
				continue
			}
			if u == controller && !released {
				continue // stays CONTROL
			}
			if state[u] != Complete {
				p.setState(u, Dormant)
			}
		}
		if released {
			controller = -1
		}
	}

	res.ExecTime = b.Elapsed()
	return res, nil
}
