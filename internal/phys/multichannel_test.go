package phys

// Property tests for the multi-channel slot engine: MultiSlotState must
// agree decision-for-decision with the naive per-channel FeasibleSet
// reference (FeasibleAssignment) over randomized add sequences, and the
// radio budget must bind exactly.

import (
	"math/rand"
	"slices"
	"testing"
)

// TestMultiSlotStateMatchesNaiveFuzz drives a MultiSlotState through random
// CanAdd-gated adds and asserts at every step that CanAdd(l, ch) equals
// FeasibleAssignment on the would-be union and that the state lists the
// admitted placements in admission order, for both tight (1) and loose (2)
// radio budgets. Every other trial re-initialises one state the previous
// odd trial filled, so reuse through Init must behave as a fresh state.
func TestMultiSlotStateMatchesNaiveFuzz(t *testing.T) {
	ch := lineChannel(t, 24, 35, 20)
	const channels = 3
	for _, radios := range []int{1, 2} {
		rng := rand.New(rand.NewSource(int64(100 + radios)))
		agreeAdds, agreeRejects := 0, 0
		var reused MultiSlotState
		for trial := 0; trial < 150; trial++ {
			st := newMultiSlotState(ch, channels, radios)
			if trial%2 == 1 {
				st = &reused
				st.Init(ch, channels, radios)
			}
			var mirror []Placement
			for op := 0; op < 40; op++ {
				l := randomLink(rng, 24)
				c := rng.Intn(channels)
				want := FeasibleAssignment(ch, channels, append(slices.Clone(mirror), Placement{l, c}), radios)
				got := st.CanAdd(NewCandidate(ch, l), c)
				if got != want {
					t.Fatalf("radios=%d trial %d op %d: CanAdd(%v, ch%d) = %v, naive reference = %v (slot %v)",
						radios, trial, op, l, c, got, want, mirror)
				}
				if got {
					st.Add(NewCandidate(ch, l), c)
					mirror = append(mirror, Placement{l, c})
					agreeAdds++
				} else {
					agreeRejects++
				}
				if ps := placements(st); !slices.Equal(ps, mirror) {
					t.Fatalf("radios=%d trial %d op %d: Placements %v, admitted %v", radios, trial, op, ps, mirror)
				}
			}
		}
		if agreeAdds == 0 || agreeRejects == 0 {
			t.Fatalf("radios=%d: fuzz did not exercise both outcomes (adds %d, rejects %d)", radios, agreeAdds, agreeRejects)
		}
		t.Logf("radios=%d: %d adds, %d rejects agreed with the naive reference", radios, agreeAdds, agreeRejects)
	}
}

// TestMultiSlotStateRadioSaturation pins the multi-radio constraint at a
// relay: two far-apart links sharing relay node r cannot ride two channels
// of one slot with a single radio at r, and can with two.
func TestMultiSlotStateRadioSaturation(t *testing.T) {
	// Nodes 0..23 on a line; links into/out of node 12 share that endpoint.
	ch := lineChannel(t, 24, 35, 20)
	up := NewCandidate(ch, Link{From: 11, To: 12})   // child -> relay
	down := NewCandidate(ch, Link{From: 12, To: 13}) // relay -> parent

	one := newMultiSlotState(ch, 2, 1)
	if !one.CanAdd(up, 0) {
		t.Fatal("singleton link rejected")
	}
	one.Add(up, 0)
	if one.CanAdd(down, 0) {
		t.Fatal("primary conflict admitted on the same channel")
	}
	if one.CanAdd(down, 1) {
		t.Fatal("relay with 1 radio admitted on a second channel")
	}

	two := newMultiSlotState(ch, 2, 2)
	two.Add(up, 0)
	if !two.CanAdd(down, 1) {
		t.Fatal("relay with 2 radios rejected on a second channel")
	}
	two.Add(down, 1)
	if two.CanAdd(NewCandidate(ch, Link{From: 12, To: 11}), 0) || two.CanAdd(NewCandidate(ch, Link{From: 13, To: 12}), 1) {
		t.Fatal("third placement at a 2-radio node admitted")
	}
	if !FeasibleAssignment(ch, 2, placements(two), 2) {
		t.Fatal("naive reference rejects the 2-radio slot the engine built")
	}
	if FeasibleAssignment(ch, 2, placements(two), 1) {
		t.Fatal("naive reference accepts a 2-placement relay under 1 radio")
	}
}

// TestMultiSlotStateSingleChannelMatchesSlotState: with one channel and one
// radio the multi engine must take exactly the single-channel engine's
// decisions (the fast path the single-channel figures stay on).
func TestMultiSlotStateSingleChannelMatchesSlotState(t *testing.T) {
	ch := lineChannel(t, 20, 35, 20)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		multi := newMultiSlotState(ch, 1, 1)
		single := NewSlotState(ch)
		for op := 0; op < 25; op++ {
			l := randomLink(rng, 20)
			c := NewCandidate(ch, l)
			gm, gs := multi.CanAdd(c, 0), single.CanAdd(c)
			if gm != gs {
				t.Fatalf("trial %d: multi CanAdd %v, single %v for %v", trial, gm, gs, l)
			}
			if gm {
				multi.Add(c, 0)
				single.Add(c)
			}
		}
	}
}

// placements returns a copy of s's placements in admission order.
func placements(s *MultiSlotState) []Placement {
	return slices.Clone(s.order)
}

// newMultiSlotState returns an empty slot over channels copies of e.
func newMultiSlotState(e Engine, channels, numRadios int) *MultiSlotState {
	s := new(MultiSlotState)
	s.Init(e, channels, numRadios)
	return s
}
