package sched

import (
	"fmt"

	"scream/internal/graph"
	"scream/internal/phys"
)

// The two demonstration greedies: GreedyProtocol, the paper's Section I
// contrast of the protocol interference model, and LocalizedGreedy, the
// k-hop-localized algorithm of Theorem 1. Neither is on a scheduling hot
// path, so both run firstFit over their model's reference feasibility
// check instead of an incremental slot state.

// GreedyProtocol is GreedyPhysical's counterpart under the protocol
// interference model: the same edge-major greedy, with slot feasibility
// decided by exclusion regions (ProtocolModel.FeasibleSet) instead of SINR.
// The paper's introduction motivates STDMA-with-physical-interference by the
// capacity the protocol model (and hence CSMA/CA) leaves on the table;
// comparing the two greedy schedules quantifies it.
func GreedyProtocol(pm *phys.ProtocolModel, links []phys.Link, demands []int, ord Ordering, ch *phys.Channel) (*Schedule, error) {
	var set []phys.Link
	return firstFit(ch, links, demands, ord, func(occupants []int, ei int) bool {
		set = set[:0]
		for _, oi := range occupants {
			set = append(set, links[oi])
		}
		return pm.FeasibleSet(append(set, links[ei]))
	})
}

// LocalizedGreedy is GreedyPhysical restricted to k-hop-local information:
// when deciding whether edge e fits a slot, it only accounts for the
// interference of already-scheduled links within the k-hop neighborhood of e
// (Definition 5), exactly the class of algorithms Theorem 1 proves cannot
// always produce feasible schedules. It exists to demonstrate the theorem:
// its output may fail Verify.
func LocalizedGreedy(ch *phys.Channel, comm *graph.Graph, links []phys.Link, demands []int, k int, ord Ordering) (*Schedule, error) {
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
	return firstFit(ch, links, demands, ord, func(occupants []int, ei int) bool {
		return localFits(ch, links, neighborhood, occupants, ei)
	})
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

// firstFit is the greedy loop of both demonstrations: the links, ranked by
// ord on ch as GreedyPhysical ranks them, each take the first demands[i]
// slots that fits admits them to, slots in order, opening a new slot when
// they run out. fits reports whether links[ei] may join a slot that holds
// the links at indices occupants; asked about an empty slot, it is the
// link's singleton feasibility, which every link must have, so the slot a
// link opens admits it and the loop ends.
func firstFit(ch *phys.Channel, links []phys.Link, demands []int, ord Ordering, fits func(occupants []int, ei int) bool) (*Schedule, error) {
	if len(links) != len(demands) {
		return nil, fmt.Errorf("sched: %d links vs %d demands", len(links), len(demands))
	}
	for i, l := range links {
		if !fits(nil, i) {
			return nil, fmt.Errorf("sched: link %v alone is infeasible; no schedule exists", l)
		}
		if demands[i] < 0 {
			return nil, fmt.Errorf("sched: link %v has negative demand %d", l, demands[i])
		}
	}
	var occupants [][]int
	var slots [][]phys.Link
	for _, ei := range new(Builder).orderEdges(ch, links, demands, ord) {
		for slot, remaining := 0, demands[ei]; remaining > 0; slot++ {
			if slot == len(slots) {
				occupants, slots = append(occupants, nil), append(slots, nil)
			}
			if fits(occupants[slot], ei) {
				occupants[slot] = append(occupants[slot], ei)
				slots[slot] = append(slots[slot], links[ei])
				remaining--
			}
		}
	}
	return &Schedule{slots: slots}, nil
}
