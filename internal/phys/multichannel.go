package phys

import "fmt"

// Placement is one link scheduled on one channel of a multi-channel slot.
type Placement struct {
	Link    Link
	Channel int
}

// String implements fmt.Stringer.
func (p Placement) String() string { return fmt.Sprintf("%v@ch%d", p.Link, p.Channel) }

// FeasibleAssignment is the naive reference feasibility check for a slot
// over channels orthogonal frequency channels of base. All channels share
// base's propagation — the same gain matrix, transmit powers, noise floor and
// SINR threshold — but interference accumulates within a channel only (the
// multicoloring setting of Vieira et al., arXiv:1504.01647). So every channel
// index must lie in [0, channels), the links assigned to each channel must
// form a FeasibleSet of base, and no node may be an endpoint of more than
// numRadios placements: a node with R radios can tune at most R channels in
// one slot, and each placement occupies one radio at each endpoint.
// MultiSlotState is the incremental counterpart the property tests compare
// against this function.
func FeasibleAssignment(base *Channel, channels int, placements []Placement, numRadios int) bool {
	if numRadios <= 0 {
		numRadios = 1
	}
	radios := make(map[int]int)
	perChan := make([][]Link, max(channels, 0))
	for _, p := range placements {
		if p.Channel < 0 || p.Channel >= channels {
			return false
		}
		perChan[p.Channel] = append(perChan[p.Channel], p.Link)
		radios[p.Link.From]++
		radios[p.Link.To]++
	}
	for _, used := range radios {
		if used > numRadios {
			return false
		}
	}
	for _, links := range perChan {
		if len(links) > 0 && !base.FeasibleSet(links) {
			return false
		}
	}
	return true
}

// MultiSlotState is the incremental feasibility engine for one multi-channel
// slot under construction: a vector of per-channel SlotStates (interference
// sums accumulate within a channel only) plus a per-node radio-occupancy
// count enforcing that no node is active on more than numRadios channels in
// the slot. CanAdd and Add are O(k_ch) against the links already on the
// probed channel.
//
// A MultiSlotState is not safe for concurrent use.
type MultiSlotState struct {
	numRadios int32
	states    []SlotState
	radios    []int32     // radios[u]: placements in this slot with endpoint u
	order     []Placement // admission order across channels
}

// Init (re-)binds s to channels orthogonal copies of engine e as an empty
// slot with the given per-node radio budget (numRadios <= 0 means 1),
// reusing the storage of its previous life: a greedy builder re-initialises
// its slots build after build instead of allocating new ones. The zero
// MultiSlotState is ready for Init.
func (s *MultiSlotState) Init(e Engine, channels, numRadios int) {
	s.numRadios = int32(max(numRadios, 1))
	if cap(s.states) < channels {
		s.states = make([]SlotState, channels)
	}
	s.states = s.states[:channels]
	for i := range s.states {
		s.states[i].InitEngine(e)
	}
	if n := e.NumNodes(); len(s.radios) == n {
		// Only the placed endpoints' counts are nonzero.
		for _, p := range s.order {
			s.radios[p.Link.From]--
			s.radios[p.Link.To]--
		}
	} else {
		s.radios = make([]int32, n)
	}
	s.order = s.order[:0]
}

// Len returns the number of placements in the slot.
func (s *MultiSlotState) Len() int { return len(s.order) }

// AppendPlacements appends the slot's placements, in admission order, to
// links and their channels to chans, and returns both extended slices.
func (s *MultiSlotState) AppendPlacements(links []Link, chans []int) ([]Link, []int) {
	for _, p := range s.order {
		links = append(links, p.Link)
		chans = append(chans, p.Channel)
	}
	return links, chans
}

// CanAdd reports whether placing c on channel ch keeps the slot feasible:
// both endpoints must have a free radio (fewer than numRadios placements in
// this slot already touch them) and c must clear the single-channel CanAdd
// against the links currently on ch. For a feasible current slot this is
// exactly FeasibleAssignment(placements + {c.Link, ch}).
func (s *MultiSlotState) CanAdd(c Candidate, ch int) bool {
	if s.radios[c.From] >= s.numRadios || s.radios[c.To] >= s.numRadios {
		return false
	}
	return s.states[ch].CanAdd(c)
}

// Add places c on channel ch, updating the channel's running sums and both
// endpoints' radio counts. Like SlotState.Add it never rejects; callers gate
// on CanAdd.
func (s *MultiSlotState) Add(c Candidate, ch int) {
	s.states[ch].Add(c)
	s.radios[c.From]++
	s.radios[c.To]++
	s.order = append(s.order, Placement{Link: c.Link, Channel: ch})
}
