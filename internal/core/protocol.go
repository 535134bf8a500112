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
	// Probability is PDD's activation probability p.
	Probability float64
	// RNG drives PDD's coin flips; required for PDD.
	RNG *rand.Rand
	// ASAPSeal is an extension ablation (not in the paper): seal the slot
	// as soon as no dormant nodes remain instead of running the final
	// empty selection step.
	ASAPSeal bool
	// Observer receives protocol events; zero value disables tracing.
	Observer Observer
	// Metrics (nil: the process default) receives per-run counters (rounds,
	// steps, elections, SCREAM/handshake counts, execution ticks, slot adds
	// and rollbacks). Metrics are write-only: no protocol decision ever
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
	idBits      int      // leader-election ID width, the paper's id_bits = ln n
	ids         []uint64 // node IDs; nil when elections take the top set bit
	maxRounds   int      // aborts pathological runs: 10*TD + 100

	// fast is the backend when it is a fast-mode IdealBackend, whose every
	// SCREAM is the exact network-wide OR: a SCREAM over a node set is then
	// a word test, and an election over the node indices takes the set's
	// top bit. The loop also settles each step's handshake itself, on slot
	// (see handshake); mark is the slot's length at its last Mark, where
	// the step's tentative batch begins. Every other backend gets the set as
	// a []bool in flags at this one boundary, and each handshake as a link
	// list.
	fast  *IdealBackend
	flags []bool
	slot  phys.TentativeSlot
	mark  int
	// adds and rollbacks are the slot's calls, which publish reports as
	// the slot engine's counters: internal/phys keeps none.
	adds, rollbacks int64

	res       *Result
	state     []State
	in        [Terminate + 1]nodeSet // in[s]: the nodes in state s
	remaining []int
	round     int

	// Step scratch. chanSets holds one node set per channel: the nodes
	// whose link rides that channel in the slot under construction (the
	// controller on channel 0, each allocated node on its own). radios
	// counts the slot's placements with endpoint u. pos maps an owner to
	// its link's index in the step's handshake outcome. scratch serves one
	// short-lived set at a time. A step's links and owners, and a seal's
	// links and channels, are never more than n, so they fill the n-slot
	// buffers cut for them without regrowing; the schedule copies the seal's.
	chanSets, scratch nodeSet
	radios, pos       []int
	links             []phys.Link
	owners            []int
}

// newProtoRun validates the link/demand configuration and initializes the
// shared run state. Every per-node int slice shares one backing array and
// every node set another, so a run's allocations do not grow with the sets
// it keeps.
func newProtoRun(cfg Config) (*protoRun, error) {
	n := cfg.Backend.NumNodes()
	m := len(cfg.Demands)
	channels := max(cfg.NumChannels, 1)
	ints := make([]int, 4*n+m)
	linkOf, remaining := ints[:n], ints[n:n+m]
	radios, owners := ints[n+m:2*n+m], ints[2*n+m:2*n+m:3*n+m]
	pos := ints[3*n+m:]
	copy(remaining, cfg.Demands)
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

	p := &protoRun{
		cfg: cfg, n: n, linkOf: linkOf, totalDemand: totalDemand,
		idBits: IDBitsFor(n), maxRounds: 10*totalDemand + 100,
		res:       &Result{Schedule: sched.NewSchedule()},
		state:     make([]State, n),
		remaining: remaining,
		radios:    radios, pos: pos, links: make([]phys.Link, 0, n), owners: owners,
	}
	if ib, ok := cfg.Backend.(*IdealBackend); ok && !ib.strict {
		p.fast = ib
		p.slot.Init(ib.ch)
	} else {
		p.ids = make([]uint64, n)
		for i := range p.ids {
			p.ids[i] = uint64(i)
		}
		p.flags = make([]bool, n)
	}

	w := wordsFor(n)
	words := make([]uint64, (len(p.in)+1+channels)*w)
	cut := func(k int) nodeSet {
		s := nodeSet(words[: k*w : k*w])
		words = words[k*w:]
		return s
	}
	for s := range p.in {
		p.in[s] = cut(1)
	}
	p.scratch, p.chanSets = cut(1), cut(channels)

	for u := 0; u < n; u++ {
		s := Complete
		if linkOf[u] >= 0 && remaining[linkOf[u]] > 0 {
			s = Dormant
		}
		p.state[u] = s
		p.in[s].add(u)
	}
	return p, nil
}

func (p *protoRun) setState(u int, to State) {
	from := p.state[u]
	if from == to {
		return
	}
	if p.cfg.Observer.StateChange != nil {
		p.cfg.Observer.StateChange(p.round, u, from, to)
	}
	p.in[from].remove(u)
	p.in[to].add(u)
	p.state[u] = to
}

// onChan returns the set of nodes whose link rides channel ch in the slot
// under construction.
func (p *protoRun) onChan(ch int) nodeSet {
	w := len(p.scratch)
	return p.chanSets[ch*w : (ch+1)*w]
}

// chanOf returns the channel u's link rides in the slot under construction.
func (p *protoRun) chanOf(u int) int {
	for ch := 0; ; ch++ {
		if p.onChan(ch).has(u) {
			return ch
		}
	}
}

// only returns the scratch set holding just u, or no node when u < 0.
func (p *protoRun) only(u int) nodeSet {
	clear(p.scratch)
	if u >= 0 {
		p.scratch.add(u)
	}
	return p.scratch
}

// pending returns the scratch set of nodes that are not COMPLETE.
func (p *protoRun) pending() nodeSet {
	s := p.scratch
	for i, w := range p.in[Complete] {
		s[i] = ^w
	}
	if r := p.n & 63; r != 0 {
		s[len(s)-1] &= 1<<uint(r) - 1
	}
	return s
}

// scream runs one SCREAM in which the members of vars scream, and returns
// the OR node 0 computed together with every node's view. On a fast-mode
// IdealBackend the OR is a word test and views is nil: the flood saturates,
// so all nodes agree by construction.
func (p *protoRun) scream(vars nodeSet) (bool, []bool) {
	p.res.Screams++
	if p.fast != nil {
		p.fast.bill(1)
		return vars.any(), nil
	}
	views := p.cfg.Backend.Scream(vars.bools(p.flags))
	return views[0], views
}

// screamConsensus runs a SCREAM whose result steers control flow. With
// a correct SCREAM (K >= ID, adequate SMBytes, guarded slots) every
// node computes the same OR; if views diverge the distributed protocol
// has genuinely broken, which we surface as an error instead of
// silently picking a view (this is what the failure-injection tests
// observe when K < ID or the skew guard is violated).
func (p *protoRun) screamConsensus(vars nodeSet, what string) (bool, error) {
	v, views := p.scream(vars)
	for i, r := range views {
		if r != v {
			return false, fmt.Errorf("core: SCREAM divergence on %s: node 0 sees %v, node %d sees %v (K too small or skew guard violated)", what, v, i, r)
		}
	}
	return v, nil
}

// elect runs one leader election among the members of part and returns the
// winner, or -1 when part is empty.
func (p *protoRun) elect(part nodeSet) int {
	p.res.Elections++
	p.res.Screams += ElectionScreams(p.idBits)
	if p.fast != nil {
		// IDs are the node indices and idBits covers n-1, so the largest
		// participant wins.
		p.fast.bill(p.idBits)
		return part.top()
	}
	return LeaderElect(p.cfg.Backend, p.idBits, p.ids, part.bools(p.flags))
}

// handshake runs one step's handshake slot over the links of owners, which
// ascend, and returns the outcomes, indexed through pos. Every backend but
// the fast one evaluates the link list. On the fast one the slot holds one
// channel phase: its first step resets it and tentatively admits every
// owner; each later step rolls the last batch back, re-admits the batch
// members the step before placed on the channel, and tentatively admits the
// step's actives, each group in ascending order. The slot's sums add their
// terms in admission order, so they may differ from the reference's in the
// last ulp, never in a decision (DESIGN.md, "Incremental feasibility").
func (p *protoRun) handshake(first bool, onCh nodeSet, owners []int) []bool {
	if p.fast == nil {
		links := p.links[:0]
		for i, u := range owners {
			p.pos[u] = i
			links = append(links, p.cfg.Links[p.linkOf[u]])
		}
		return p.cfg.Backend.HandshakeSlot(links)
	}
	p.fast.billHandshake()
	s := &p.slot
	if first {
		s.Reset()
		s.Grow(len(owners))
	} else {
		s.Rollback()
		p.rollbacks++
		for u := onCh.next(0); u >= 0; u = onCh.next(u + 1) {
			if p.pos[u] >= p.mark {
				p.admit(u)
			}
		}
	}
	p.mark = s.Len()
	s.Mark()
	for _, u := range owners {
		if first || !onCh.has(u) {
			p.admit(u)
		}
	}
	return s.Outcomes()
}

// admit adds u's link to the fast path's slot.
func (p *protoRun) admit(u int) {
	p.pos[u] = p.slot.Len()
	p.slot.Add(p.cfg.Links[p.linkOf[u]])
	p.adds++
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
	p.publish(before)
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
// per-channel only), so a phase's handshakes are evaluated unchanged on the
// one channel model: a handshake slot never holds links from two channels.
//
// With C > 1 the per-node radio budget gates activation: an active node whose
// own or whose parent's radios are all committed to other channels of this
// slot cannot tune to the phase's channel and is discarded without a
// handshake. With C = 1 there is no gate: an active node that conflicts with
// the slot joins the handshake and fails there, as in the paper.
//
// Each step touches only node sets and their members, which every loop
// visits in ascending node order: PDD's coin flips, Observer events and trace
// lines follow that order (DESIGN.md, "The protocol loop").
func (p *protoRun) run() (*Result, error) {
	cfg := p.cfg
	linkOf := p.linkOf
	b := cfg.Backend
	res := p.res
	state := p.state
	remaining := p.remaining
	channels := max(cfg.NumChannels, 1)
	numRadios := max(cfg.NumRadios, 1)
	dormant, active, tried := p.in[Dormant], p.in[Active], p.in[Tried]
	radios := p.radios
	released := true
	controller := -1

	for ; ; p.round++ {
		if p.round >= p.maxRounds {
			return nil, fmt.Errorf("core: no termination after %d rounds (TD=%d); check feasibility of individual links", p.round, p.totalDemand)
		}

		if released {
			// Controller election among all nodes with pending demand.
			winner := p.elect(p.pending())
			// Controller-existence SCREAM: the winner (if any) screams.
			exists, err := p.screamConsensus(p.only(winner), "controller existence")
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

		// GreedyScheduleSlot: reset the slot's channel bookkeeping. Every
		// node is already COMPLETE, CONTROL or DORMANT here, as the previous
		// round's transitions left it. The controller's link occupies channel
		// 0 (the control channel it already owns the floor on).
		clear(p.chanSets)
		clear(radios)
		p.onChan(0).add(controller)
		ctrlLink := cfg.Links[linkOf[controller]]
		radios[ctrlLink.From]++
		radios[ctrlLink.To]++

		for ch := 0; ch < channels; ch++ {
			onCh := p.onChan(ch)
			if ch > 0 {
				// Revive the nodes discarded on earlier channels of this
				// slot; stop early when nobody is left to try.
				for u := tried.next(0); u >= 0; u = tried.next(u + 1) {
					p.setState(u, Dormant)
				}
				if !dormant.any() {
					break
				}
			}

			for first := true; ; first = false {
				// SelectActive.
				switch cfg.Variant {
				case PDD:
					for u := dormant.next(0); u >= 0; u = dormant.next(u + 1) {
						if cfg.RNG.Float64() < cfg.Probability {
							p.setState(u, Active)
						}
					}
				case FDD:
					if winner := p.elect(dormant); winner >= 0 {
						p.setState(winner, Active)
					}
				}

				if channels > 1 {
					// Radio gating: an active node whose endpoints cannot
					// spare a radio for this channel is discarded without a
					// handshake.
					for u := active.next(0); u >= 0; u = active.next(u + 1) {
						l := cfg.Links[linkOf[u]]
						if radios[l.From] >= numRadios || radios[l.To] >= numRadios {
							p.setState(u, Tried)
						}
					}
				}

				// Handshake slot over this channel's links: the actives
				// trying it plus the links already allocated on it.
				members := p.scratch
				members.union(active, onCh)
				hsOwners := p.owners[:0]
				for u := members.next(0); u >= 0; u = members.next(u + 1) {
					hsOwners = append(hsOwners, u)
				}
				res.Steps++
				outcome := p.handshake(first, onCh, hsOwners)

				// Verification SCREAM: edges scheduled on this channel veto
				// when the newcomers' interference broke their handshake.
				vetoes := p.scratch
				clear(vetoes)
				okCount := 0
				for _, u := range hsOwners {
					switch {
					case outcome[p.pos[u]]:
						okCount++
					case state[u] == Allocated || state[u] == Control:
						vetoes.add(u)
					}
				}
				veto, err := p.screamConsensus(vetoes, "handshake veto")
				if err != nil {
					return nil, err
				}
				if cfg.Trace != nil {
					p.traceEmit("handshake",
						obs.N("links", len(hsOwners)), obs.N("ok", okCount), obs.B("veto", veto))
				}

				// Actives join this channel or are discarded. The step's
				// owners ascend and include every active, so this visits the
				// actives in ascending order.
				for _, u := range hsOwners {
					if state[u] != Active {
						continue
					}
					if !veto && outcome[p.pos[u]] {
						p.setState(u, Allocated)
						onCh.add(u)
						l := cfg.Links[linkOf[u]]
						radios[l.From]++
						radios[l.To]++
					} else {
						p.setState(u, Tried)
					}
				}

				// Still-dormant SCREAM: dormant nodes keep the phase open.
				if cfg.ASAPSeal {
					// Extension: the same SCREAM, run only when some node is
					// still dormant, saving the final empty round-trip.
					if !dormant.any() {
						break
					}
					p.scream(dormant)
					continue
				}
				still, err := p.screamConsensus(dormant, "still-dormant")
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
		inSlot := p.scratch
		inSlot.union(p.in[Allocated], p.in[Control])
		slot, slotChans := p.links[:0], p.owners[:0]
		for u := inSlot.next(0); u >= 0; u = inSlot.next(u + 1) {
			li := linkOf[u]
			slot = append(slot, cfg.Links[li])
			if channels > 1 {
				slotChans = append(slotChans, p.chanOf(u))
			}
			remaining[li]--
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
		releaser := -1
		if remaining[linkOf[controller]] == 0 {
			releaser = controller
		}
		rel, err := p.screamConsensus(p.only(releaser), "control release")
		if err != nil {
			return nil, err
		}
		released = rel

		// State transitions for the next round. Only the slot's members and
		// the nodes tried for it move: every other node is COMPLETE, or
		// DORMANT with demand left.
		movers := p.scratch
		movers.union(p.in[Allocated], p.in[Control])
		movers.union(movers, tried)
		for u := movers.next(0); u >= 0; u = movers.next(u + 1) {
			if remaining[linkOf[u]] == 0 {
				p.setState(u, Complete)
				continue
			}
			if u == controller && !released {
				continue // stays CONTROL
			}
			p.setState(u, Dormant)
		}
		if released {
			controller = -1
		}
	}

	res.ExecTime = b.Elapsed()
	return res, nil
}
