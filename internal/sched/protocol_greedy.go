package sched

import (
	"fmt"

	"scream/internal/phys"
)

// GreedyProtocol is GreedyPhysical's counterpart under the protocol
// interference model: the same edge-major greedy, with slot feasibility
// decided by exclusion regions instead of SINR. The paper's introduction
// motivates STDMA-with-physical-interference by the capacity the protocol
// model (and hence CSMA/CA) leaves on the table; comparing the two greedy
// schedules quantifies it.
func GreedyProtocol(pm *phys.ProtocolModel, links []phys.Link, demands []int, ord Ordering, ch *phys.Channel) (*Schedule, error) {
	if len(links) != len(demands) {
		return nil, fmt.Errorf("sched: %d links vs %d demands", len(links), len(demands))
	}
	for i, l := range links {
		if !pm.FeasibleSet([]phys.Link{l}) {
			return nil, fmt.Errorf("sched: link %v alone is infeasible under the protocol model", l)
		}
		if demands[i] < 0 {
			return nil, fmt.Errorf("sched: link %v has negative demand %d", l, demands[i])
		}
	}
	// One checker and one link list per slot. Every link is feasible alone,
	// so the slot a link opens admits it.
	var checkers []*phys.ProtocolSlotChecker
	var slots [][]phys.Link
	for _, ei := range new(Builder).orderEdges(ch, links, demands, ord) {
		l := links[ei]
		remaining := demands[ei]
		for slot := 0; remaining > 0; slot++ {
			if slot == len(checkers) {
				checkers, slots = append(checkers, phys.NewProtocolSlotChecker(pm)), append(slots, nil)
			}
			if checkers[slot].CanAdd(l) {
				checkers[slot].Add(l)
				slots[slot] = append(slots[slot], l)
				remaining--
			}
		}
	}
	return &Schedule{slots: slots}, nil
}
