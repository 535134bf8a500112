package core

import "scream/internal/phys"

// Observer receives protocol events during Run. Any field may be nil. It
// exists for debugging, visualization, and for tests that check the
// protocol's state machine against Figure 1 of the paper.
type Observer struct {
	// ControllerElected fires when a round's controller wins election.
	ControllerElected func(round, node int)
	// StateChange fires on every node state transition (from != to).
	StateChange func(round, node int, from, to State)
	// SlotSealed fires when a slot's membership is final. links is the
	// slot as the result's schedule holds it and must not be modified.
	SlotSealed func(round int, links []phys.Link)
}
