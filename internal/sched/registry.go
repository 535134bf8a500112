package sched

import "scream/internal/phys"

// Backend is one member of the single-channel scheduler family behind a
// uniform build signature: the shape the optimality-gap harness
// (internal/sched/gapharness) iterates over. Every Backend's output must
// satisfy Schedule.Verify against the same inputs.
type Backend struct {
	// Name identifies the backend in harness reports and figure series.
	Name string
	// Build computes a feasible schedule for the instance over any
	// interference engine (the dense channel or the spatial index).
	Build func(ch phys.Engine, links []phys.Link, demands []int) (*Schedule, error)
}

// Backends returns the static scheduler family the gap harness measures, in
// reporting order: the three static greedy orderings of the MobiCom 2006
// baseline, the max-weight backlog×rate scheduler, and the Fan-Zhang
// length-class approximation. Adding a scheduler here automatically enrolls
// it in the gap harness and its pinned worst-case tests. The schedulers a run
// can name are catalogued by the flow-scheduler registry, not here.
func Backends() []Backend {
	ordered := func(ord Ordering) func(phys.Engine, []phys.Link, []int) (*Schedule, error) {
		return func(ch phys.Engine, links []phys.Link, demands []int) (*Schedule, error) {
			return GreedyPhysical(ch, links, demands, ord)
		}
	}
	return []Backend{
		{Name: "greedy(head-id-desc)", Build: ordered(ByHeadIDDesc)},
		{Name: "greedy(demand-desc)", Build: ordered(ByDemandDesc)},
		{Name: "greedy(length-desc)", Build: ordered(ByLengthDesc)},
		{Name: "maxweight", Build: GreedyMaxWeight},
		{Name: "fanzhang", Build: ApproxFanZhang},
	}
}
