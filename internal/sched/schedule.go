// Package sched defines STDMA schedules, verifies them against the physical
// interference model, and implements the centralized GreedyPhysical baseline
// of Brar/Blough/Santi (MobiCom 2006) that FDD provably emulates (Theorem 4),
// plus a deliberately localized greedy used to demonstrate Theorem 1.
package sched

import (
	"fmt"

	"scream/internal/phys"
)

// Schedule is an STDMA schedule: an ordered list of slots, each holding the
// set of directed links that transmit concurrently in that slot.
//
// Multi-channel schedules additionally carry a per-slot channel assignment
// (AppendSlotAssigned / SlotChannels): links of one slot that ride different
// orthogonal channels do not interfere with each other. A nil assignment
// means every link rides channel 0 — the single-channel schedules of the
// paper, whose representation (and JSON encoding) is unchanged.
type Schedule struct {
	slots [][]phys.Link
	// chans, when non-nil, is parallel to slots: chans[i][j] is the channel
	// of slots[i][j]. A nil chans (or a nil chans[i]) means channel 0.
	chans [][]int
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule { return &Schedule{} }

// Length returns the number of slots — the quantity the paper minimizes.
func (s *Schedule) Length() int { return len(s.slots) }

// Slot returns the links of slot i. The returned slice is owned by the
// schedule and must not be modified.
func (s *Schedule) Slot(i int) []phys.Link { return s.slots[i] }

// AppendSlot adds a slot holding the given links (copied), all on channel 0.
func (s *Schedule) AppendSlot(links []phys.Link) {
	cp := make([]phys.Link, len(links))
	copy(cp, links)
	s.slots = append(s.slots, cp)
	if s.chans != nil && len(s.chans) < len(s.slots) {
		s.chans = append(s.chans, make([]int, len(links)))
	}
}

// AppendSlotAssigned adds a slot holding the given links with their channel
// assignment (both copied). It panics if the two slices disagree in length.
func (s *Schedule) AppendSlotAssigned(links []phys.Link, channels []int) {
	if len(links) != len(channels) {
		panic(fmt.Sprintf("sched: %d links with %d channel assignments", len(links), len(channels)))
	}
	if s.chans == nil {
		// Backfill: every slot appended so far rode channel 0.
		s.chans = make([][]int, len(s.slots))
		for i, slot := range s.slots {
			s.chans[i] = make([]int, len(slot))
		}
	}
	lcp := make([]phys.Link, len(links))
	copy(lcp, links)
	s.slots = append(s.slots, lcp)
	ccp := make([]int, len(channels))
	copy(ccp, channels)
	s.chans = append(s.chans, ccp)
}

// SlotChannels returns the channel assignment of slot i, parallel to
// Slot(i). It returns nil when the slot has no recorded assignment (every
// link rides channel 0). The returned slice is owned by the schedule and
// must not be modified.
func (s *Schedule) SlotChannels(i int) []int {
	if s.chans == nil || i >= len(s.chans) {
		return nil
	}
	return s.chans[i]
}

// Equal reports whether two schedules are slot-for-slot identical, treating
// each slot as a multiset of placements: the same links, with the same
// multiplicity, on the same channels (order within a slot is irrelevant).
// Multiplicity matters because a multi-radio link may legally ride several
// channels of one slot; a slot with no recorded assignment is
// all-channel-0, so single-channel schedules compare exactly as before.
func (s *Schedule) Equal(o *Schedule) bool {
	if s.Length() != o.Length() {
		return false
	}
	for i := range s.slots {
		if len(s.slots[i]) != len(o.slots[i]) {
			return false
		}
		count := make(map[phys.Placement]int, len(s.slots[i]))
		sc, oc := s.SlotChannels(i), o.SlotChannels(i)
		for j, l := range s.slots[i] {
			p := phys.Placement{Link: l}
			if sc != nil {
				p.Channel = sc[j]
			}
			count[p]++
		}
		for j, l := range o.slots[i] {
			p := phys.Placement{Link: l}
			if oc != nil {
				p.Channel = oc[j]
			}
			if count[p] == 0 {
				return false
			}
			count[p]--
		}
	}
	return true
}

// Verify checks that the schedule is feasible under the physical
// interference model of channel ch and that it delivers exactly the given
// demands: links[i] appears in exactly demands[i] slots. It returns nil on
// success and a descriptive error on the first violation. It is VerifyMulti
// on one channel with one radio per node.
func (s *Schedule) Verify(ch *phys.Channel, links []phys.Link, demands []int) error {
	return s.VerifyMulti(ch, 1, 1, links, demands)
}

// VerifyMulti checks a multi-channel schedule against channels orthogonal
// copies of ch: every slot's channel assignment must be feasible (per-channel
// SINR inequalities and primary conflicts, plus the per-node radio budget —
// see phys.FeasibleAssignment) and the schedule must deliver exactly the
// given demands, each placement serving one demand unit (a link may ride
// several channels of one slot when radios allow). Slots without a recorded
// assignment are taken as all-channel-0. Every slot's placements go through
// one buffer, so the check allocates per schedule, not per slot; it decides
// with FeasibleSet's arithmetic, independent of the slot states that built
// the schedule.
func (s *Schedule) VerifyMulti(ch *phys.Channel, channels, numRadios int, links []phys.Link, demands []int) error {
	if channels <= 0 {
		return fmt.Errorf("sched: channel count must be positive, got %d", channels)
	}
	if len(links) != len(demands) {
		return fmt.Errorf("sched: %d links vs %d demands", len(links), len(demands))
	}
	longest := 0
	for _, slot := range s.slots {
		longest = max(longest, len(slot))
	}
	placements := make([]phys.Placement, 0, longest)
	got := make(map[phys.Link]int, len(links))
	for i, slot := range s.slots {
		if len(slot) == 0 {
			return fmt.Errorf("sched: slot %d is empty", i)
		}
		chans := s.SlotChannels(i)
		placements = placements[:0]
		for j, l := range slot {
			c := 0
			if chans != nil {
				c = chans[j]
			}
			if c < 0 || c >= channels {
				return fmt.Errorf("sched: slot %d assigns %v to channel %d of %d", i, l, c, channels)
			}
			placements = append(placements, phys.Placement{Link: l, Channel: c})
			got[l]++
		}
		if !phys.FeasibleAssignment(ch, channels, placements, numRadios) {
			if channels == 1 {
				return fmt.Errorf("sched: slot %d is infeasible under the physical interference model: %v", i, slot)
			}
			return fmt.Errorf("sched: slot %d is infeasible under the multi-channel model (%d radios): %v", i, numRadios, placements)
		}
	}
	// Every link must be placed exactly as often as its demands add up to,
	// with no placement of a link without demand.
	want := make(map[phys.Link]int, len(links))
	for i, l := range links {
		want[l] += demands[i]
	}
	for l, w := range want {
		if got[l] != w {
			return fmt.Errorf("sched: link %v scheduled %d times, demand is %d", l, got[l], w)
		}
	}
	for l := range got {
		if _, ok := want[l]; !ok {
			return fmt.Errorf("sched: link %v scheduled but has no demand", l)
		}
	}
	return nil
}

// CountInfeasibleSlots returns how many slots of s violate the full
// physical interference model (data + ACK inequalities) of ch.
func CountInfeasibleSlots(ch *phys.Channel, s *Schedule) int {
	bad := 0
	for i := 0; i < s.Length(); i++ {
		if !ch.FeasibleSet(s.Slot(i)) {
			bad++
		}
	}
	return bad
}

// LinearLength returns the length of the fully serialized schedule (one
// transmission per slot) — the paper's baseline for the "%age improvement
// over linear" metric of Figures 6 and 7.
func LinearLength(demands []int) int {
	total := 0
	for _, d := range demands {
		total += d
	}
	return total
}

// ImprovementOverLinear returns the percentage improvement of a schedule of
// the given length over the serialized schedule: 100*(TD - L)/TD.
func ImprovementOverLinear(length, totalDemand int) float64 {
	if totalDemand == 0 {
		return 0
	}
	return 100 * float64(totalDemand-length) / float64(totalDemand)
}
