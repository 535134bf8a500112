package phys

import (
	"fmt"
	"slices"
)

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
// numRadios placements (numRadios <= 0 means 1): a node with R radios can
// tune at most R channels in one slot, and each placement occupies one radio
// at each endpoint. Each channel's links go to FeasibleSet in placement
// order. The check is quadratic in the slot's placements and allocates
// nothing unless a channel carries more than 64 links, so a verifier can run
// it on every slot of a schedule. The greedy builder's admission pass is
// the incremental counterpart the tests compare against this function.
func FeasibleAssignment(base *Channel, channels int, placements []Placement, numRadios int) bool {
	numRadios = max(numRadios, 1)
	for _, p := range placements {
		if p.Channel < 0 || p.Channel >= channels {
			return false
		}
		if radiosAt(placements, p.Link.From) > numRadios || radiosAt(placements, p.Link.To) > numRadios {
			return false
		}
	}
	var buf [64]Link
	for i, p := range placements {
		if slices.ContainsFunc(placements[:i], func(q Placement) bool { return q.Channel == p.Channel }) {
			continue // the channel's links were checked at its first placement
		}
		links := buf[:0]
		for _, q := range placements[i:] {
			if q.Channel == p.Channel {
				links = append(links, q.Link)
			}
		}
		if !base.FeasibleSet(links) {
			return false
		}
	}
	return true
}

// radiosAt returns the radios the placements occupy at node u: one per
// endpoint u of each placement.
func radiosAt(placements []Placement, u int) int {
	used := 0
	for _, p := range placements {
		if p.Link.From == u {
			used++
		}
		if p.Link.To == u {
			used++
		}
	}
	return used
}
