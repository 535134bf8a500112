package sched

import (
	"cmp"
	"fmt"
	"slices"

	"scream/internal/graph"
	"scream/internal/phys"
)

// Ordering selects how GreedyPhysical ranks edges before the greedy pass.
// The approximation bound of the MobiCom 2006 paper holds for any fixed
// ordering (as observed in the proof of Theorem 4), so the choice is a
// quality/structure knob, not a correctness one.
type Ordering int

const (
	// ByHeadIDDesc considers edges in decreasing order of the owner
	// (head) node's ID — the variant GreedyPhysical that FDD emulates
	// exactly (Theorem 4).
	ByHeadIDDesc Ordering = iota + 1
	// ByDemandDesc considers heavier edges first.
	ByDemandDesc
	// ByLengthDesc considers physically longer links first (they are the
	// most interference-fragile, mirroring the MobiCom 2006 heuristic).
	ByLengthDesc
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case ByHeadIDDesc:
		return "head-id-desc"
	case ByDemandDesc:
		return "demand-desc"
	case ByLengthDesc:
		return "length-desc"
	default:
		return fmt.Sprintf("ordering(%d)", int(o))
	}
}

// orderEdges returns the indices of links in scheduling order.
func orderEdges(ch phys.Engine, links []phys.Link, demands []int, ord Ordering) []int {
	idx := make([]int, len(links))
	for i := range idx {
		idx[i] = i
	}
	switch ord {
	case ByDemandDesc:
		slices.SortStableFunc(idx, func(a, b int) int {
			if c := cmp.Compare(demands[b], demands[a]); c != 0 {
				return c
			}
			return cmp.Compare(links[b].From, links[a].From)
		})
	case ByLengthDesc:
		slices.SortStableFunc(idx, func(a, b int) int {
			// Longer link <=> smaller direct gain.
			ga := ch.Gain(links[a].From, links[a].To)
			gb := ch.Gain(links[b].From, links[b].To)
			if c := cmp.Compare(ga, gb); c != 0 {
				return c
			}
			return cmp.Compare(links[b].From, links[a].From)
		})
	default: // ByHeadIDDesc
		slices.SortStableFunc(idx, func(a, b int) int {
			return cmp.Compare(links[b].From, links[a].From)
		})
	}
	return idx
}

// GreedyPhysical computes a feasible schedule with the centralized greedy
// algorithm of the MobiCom 2006 paper: edges are considered in the given
// order; each edge is placed into the first demands[i] slots in which adding
// it keeps the slot feasible, appending new slots when needed. The returned
// schedule always satisfies Verify against the same inputs.
func GreedyPhysical(ch phys.Engine, links []phys.Link, demands []int, ord Ordering) (*Schedule, error) {
	return greedyPhysical(ch, links, demands, ord, false)
}

// GreedyPhysicalDataOnly is GreedyPhysical with the ACK sub-slot inequality
// disabled (ablation: the original Gupta-Kumar physical model without the
// paper's link-layer-reliability extension). Its schedules may fail Verify
// under the full model; CountInfeasibleSlots quantifies by how much.
func GreedyPhysicalDataOnly(ch phys.Engine, links []phys.Link, demands []int, ord Ordering) (*Schedule, error) {
	return greedyPhysical(ch, links, demands, ord, true)
}

func greedyPhysical(ch phys.Engine, links []phys.Link, demands []int, ord Ordering, dataOnly bool) (*Schedule, error) {
	if len(links) != len(demands) {
		return nil, fmt.Errorf("sched: %d links vs %d demands", len(links), len(demands))
	}
	return greedyPhysicalOrdered(ch, links, demands, orderEdges(ch, links, demands, ord), dataOnly)
}

// singletonFeasible reports whether c alone can occupy a slot: both the
// data and the ACK transmission must clear beta against noise with no
// interference. This is exactly Channel.FeasibleSet on a one-link set
// (self-loops fail through their zero self-gain), phrased over the Engine
// interface so any engine can answer it — and since SignalMW is exact on
// every engine, all engines agree on it.
func singletonFeasible(ch phys.Engine, c phys.Candidate) bool {
	floor := ch.Beta() * ch.NoiseMW()
	return c.DataMW >= floor && c.AckMW >= floor
}

// greedyPhysicalOrdered runs the first-fit greedy admission pass over the
// links named by order (indices into links/demands), in that order. Links
// absent from order are ignored — the Fan-Zhang class scheduler exploits
// this to run the engine on one length class at a time.
func greedyPhysicalOrdered(ch phys.Engine, links []phys.Link, demands []int, order []int, dataOnly bool) (*Schedule, error) {
	// Slot states live in fixed-size slabs: constructing a schedule touches
	// hundreds of slots, so one heap allocation per slot (or copying the
	// states around as a flat slice grows) would dominate the incremental
	// feasibility checks themselves. Slabs never move, which SlotState's
	// inline small-slot storage requires.
	const slabSize = 64
	var slabs []*[slabSize]phys.SlotState
	var slots []*phys.SlotState
	for _, ei := range order {
		// The link's exact signals, computed once per build: they decide its
		// singleton feasibility here and every admission probe below. Links
		// are checked in order, so invalid input fails on its first bad link.
		c := phys.NewCandidate(ch, links[ei])
		if !singletonFeasible(ch, c) {
			return nil, fmt.Errorf("sched: link %v alone is infeasible; no schedule exists", c.Link)
		}
		remaining := demands[ei]
		if remaining < 0 {
			return nil, fmt.Errorf("sched: link %v has negative demand %d", c.Link, remaining)
		}
		for slot := 0; remaining > 0; slot++ {
			if slot == len(slots) {
				if slot%slabSize == 0 {
					slabs = append(slabs, new([slabSize]phys.SlotState))
				}
				st := &slabs[len(slabs)-1][slot%slabSize]
				if dataOnly {
					st.InitEngineDataOnly(ch)
				} else {
					st.InitEngine(ch)
				}
				slots = append(slots, st)
			}
			if slots[slot].CanAdd(c) {
				slots[slot].Add(c)
				remaining--
			}
		}
	}
	// Materialize the schedule from the slot states; each holds its links
	// in admission order. A slot is only ever created by a link that then
	// joins it (singleton feasibility was pre-validated), so none is empty.
	s := &Schedule{slots: make([][]phys.Link, len(slots))}
	for i, st := range slots {
		s.slots[i] = st.Links()
	}
	recordBuild(s.slots)
	return s, nil
}

// GreedyPhysicalMulti generalizes GreedyPhysical to channels orthogonal
// copies of eng and numRadios radios per node: edges are considered in the
// given order; each edge is placed first-fit over (slot, channel) pairs —
// slots in order, the channels of each slot in ascending order — wherever the
// multi-channel slot stays feasible (per-channel SINR, per-node radio
// budget), appending new slots as needed. With more than one radio per node
// an edge may ride several channels of the same slot, each placement serving
// one demand unit. On one channel it is GreedyPhysical, whatever the radio
// count: a node is an endpoint of at most one link of a feasible
// single-channel slot, so the budget cannot bind. The returned schedule
// always satisfies VerifyMulti against the same inputs.
func GreedyPhysicalMulti(eng phys.Engine, channels, numRadios int, links []phys.Link, demands []int, ord Ordering) (*Schedule, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("sched: channel count must be positive, got %d", channels)
	}
	if channels == 1 {
		// The slab-allocated single-channel SlotState engine.
		return greedyPhysical(eng, links, demands, ord, false)
	}
	if len(links) != len(demands) {
		return nil, fmt.Errorf("sched: %d links vs %d demands", len(links), len(demands))
	}
	for i, l := range links {
		if !singletonFeasible(eng, phys.NewCandidate(eng, l)) {
			return nil, fmt.Errorf("sched: link %v alone is infeasible; no schedule exists", l)
		}
		if demands[i] < 0 {
			return nil, fmt.Errorf("sched: link %v has negative demand %d", l, demands[i])
		}
	}
	var slots []*phys.MultiSlotState
	for _, ei := range orderEdges(eng, links, demands, ord) {
		c := phys.NewCandidate(eng, links[ei])
		remaining := demands[ei]
		for slot := 0; remaining > 0; slot++ {
			if slot == len(slots) {
				slots = append(slots, phys.NewMultiSlotState(eng, channels, numRadios))
			}
			for ch := 0; ch < channels && remaining > 0; ch++ {
				if slots[slot].CanAdd(c, ch) {
					slots[slot].Add(c, ch)
					remaining--
				}
			}
		}
	}
	// Materialize; a slot is only ever created by a link that then joins its
	// channel 0 (the slot is empty and the link is singleton-feasible), so
	// none is empty.
	s := NewSchedule()
	for _, st := range slots {
		ps := st.Placements()
		slotLinks := make([]phys.Link, len(ps))
		slotChans := make([]int, len(ps))
		for i, p := range ps {
			slotLinks[i] = p.Link
			slotChans[i] = p.Channel
		}
		s.AppendSlotAssigned(slotLinks, slotChans)
	}
	recordBuild(s.slots)
	return s, nil
}

// LocalizedGreedy is GreedyPhysical restricted to k-hop-local information:
// when deciding whether edge e fits a slot, it only accounts for the
// interference of already-scheduled links within the k-hop neighborhood of e
// (Definition 5), exactly the class of algorithms Theorem 1 proves cannot
// always produce feasible schedules. It exists to demonstrate the theorem:
// its output may fail Verify.
func LocalizedGreedy(ch *phys.Channel, comm *graph.Graph, links []phys.Link, demands []int, k int, ord Ordering) (*Schedule, error) {
	if len(links) != len(demands) {
		return nil, fmt.Errorf("sched: %d links vs %d demands", len(links), len(demands))
	}
	edges := make([]graph.Edge, len(links))
	for i, l := range links {
		edges[i] = graph.Edge{U: l.From, V: l.To}
	}
	// Precompute each link's k-neighborhood as a set of link indices.
	neighborhood := make([]map[int]bool, len(links))
	for i := range links {
		nb := graph.LinkKNeighborhood(comm, edges, i, k)
		set := make(map[int]bool, len(nb))
		for _, j := range nb {
			set[j] = true
		}
		neighborhood[i] = set
	}

	s := NewSchedule()
	// For each slot, remember which link indices it holds.
	var slotLinks [][]int
	for _, ei := range orderEdges(ch, links, demands, ord) {
		remaining := demands[ei]
		for slot := 0; remaining > 0; slot++ {
			if slot == len(slotLinks) {
				slotLinks = append(slotLinks, nil)
			}
			if localFits(ch, links, neighborhood, slotLinks[slot], ei) {
				slotLinks[slot] = append(slotLinks[slot], ei)
				s.AddToSlot(slot, links[ei])
				remaining--
			}
		}
	}
	for s.Length() > 0 && len(s.slots[s.Length()-1]) == 0 {
		s.slots = s.slots[:s.Length()-1]
	}
	return s, nil
}

// localFits checks slot feasibility seen through ei's k-hop keyhole: only
// in-neighborhood occupants are visible, both for ei's own SINR and for the
// occupants' re-check.
func localFits(ch *phys.Channel, links []phys.Link, neighborhood []map[int]bool, occupants []int, ei int) bool {
	visible := make([]phys.Link, 0, len(occupants)+1)
	for _, oi := range occupants {
		if neighborhood[ei][oi] {
			visible = append(visible, links[oi])
		} else if links[ei].SharesEndpoint(links[oi]) {
			// Primary conflicts are always local knowledge.
			return false
		}
	}
	visible = append(visible, links[ei])
	return ch.FeasibleSet(visible)
}
