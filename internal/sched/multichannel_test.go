package sched

// Tests for multi-channel scheduling: GreedyPhysicalMulti must collapse to
// GreedyPhysical on one channel whatever the radio count, stay
// VerifyMulti-feasible and get strictly shorter as channels are added,
// handle degenerate channel counts (more channels than feasible links), and
// round-trip its channel assignment through JSON.

import (
	"encoding/json"
	"testing"

	"scream/internal/phys"
)

// TestGreedyMultiSingleChannelMatchesGreedy: the one-channel fast path must
// reproduce GreedyPhysical exactly, slot for slot, for any radio count, with
// no channel assignment recorded (so downstream encodings stay
// byte-identical).
func TestGreedyMultiSingleChannelMatchesGreedy(t *testing.T) {
	net, links, demands := testMesh(t, 5, 3)
	want, err := GreedyPhysical(net.Channel, links, demands, ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, radios := range []int{1, 2, 3} {
		got, err := GreedyPhysicalMulti(net.Channel, 1, radios, links, demands, ByHeadIDDesc)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("R=%d: single-channel multi schedule differs: %d vs %d slots", radios, got.Length(), want.Length())
		}
		for i := 0; i < got.Length(); i++ {
			if got.SlotChannels(i) != nil {
				t.Fatalf("R=%d: slot %d recorded a channel assignment on the single-channel path", radios, i)
			}
		}
		gj, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(wj) != string(gj) {
			t.Fatalf("R=%d: single-channel JSON differs:\n%s\n%s", radios, wj, gj)
		}
	}
}

// TestGreedyMultiFeasibleAndShorter: for a mesh with real contention, every
// channel count yields a VerifyMulti-feasible schedule and added channels
// strictly shorten it (until the per-node serialization bound dominates).
func TestGreedyMultiFeasibleAndShorter(t *testing.T) {
	lengths := make([]int, 0, 3)
	net, links, demands := testMesh(t, 6, 5)
	for _, c := range []int{1, 2, 4} {
		s, err := GreedyPhysicalMulti(net.Channel, c, 2, links, demands, ByHeadIDDesc)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyMulti(net.Channel, c, 2, links, demands); err != nil {
			t.Fatalf("C=%d: %v", c, err)
		}
		lengths = append(lengths, s.Length())
	}
	for i := 1; i < len(lengths); i++ {
		if lengths[i] >= lengths[i-1] {
			t.Fatalf("schedule lengths not strictly decreasing with channels: %v", lengths)
		}
	}
	t.Logf("greedy schedule lengths for C=1,2,4 with 2 radios: %v", lengths)
}

// TestGreedyMultiMoreChannelsThanLinks: with far more channels than
// schedulable links, the schedule degenerates gracefully — radios (not
// channels) bind, unused channels stay empty, and VerifyMulti still holds.
func TestGreedyMultiMoreChannelsThanLinks(t *testing.T) {
	net, links, demands := testMesh(t, 3, 9) // 8 forest links, 16 channels
	s, err := GreedyPhysicalMulti(net.Channel, 16, 2, links, demands, ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyMulti(net.Channel, 16, 2, links, demands); err != nil {
		t.Fatal(err)
	}
	// With every link able to ride 2 channels per slot, total demand must be
	// served in at most ceil(maxPerNodeLoad / 1) slots; sanity-bound it by
	// the single-channel length instead of a closed form.
	single, err := GreedyPhysical(net.Channel, links, demands, ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	if s.Length() > single.Length() {
		t.Fatalf("16-channel schedule (%d slots) longer than single-channel (%d)", s.Length(), single.Length())
	}
}

// TestScheduleEqualChannelAware: Equal must compare slots as multisets of
// (link, channel) placements — duplicate placements of one link (legal with
// multiple radios) and differing channel assignments both distinguish
// schedules.
func TestScheduleEqualChannelAware(t *testing.T) {
	l, m := phys.Link{From: 0, To: 1}, phys.Link{From: 2, To: 3}

	dup := NewSchedule()
	dup.AppendSlotAssigned([]phys.Link{l, l}, []int{0, 1})
	mixed := NewSchedule()
	mixed.AppendSlotAssigned([]phys.Link{l, m}, []int{0, 1})
	if dup.Equal(mixed) {
		t.Fatal("slot [l,l] compared equal to slot [l,m]")
	}

	ch0 := NewSchedule()
	ch0.AppendSlotAssigned([]phys.Link{l, m}, []int{0, 0})
	ch1 := NewSchedule()
	ch1.AppendSlotAssigned([]phys.Link{l, m}, []int{0, 1})
	if ch0.Equal(ch1) {
		t.Fatal("schedules with different channel assignments compared equal")
	}

	// A recorded all-zero assignment means the same thing as no assignment.
	plain := NewSchedule()
	plain.AppendSlot([]phys.Link{m, l})
	if !ch0.Equal(plain) || !plain.Equal(ch0) {
		t.Fatal("explicit channel-0 assignment not equal to unassigned slot")
	}
}

// TestScheduleJSONChannels: the channel assignment survives a JSON round
// trip, and single-channel schedules still encode without a "chans" key.
func TestScheduleJSONChannels(t *testing.T) {
	s := NewSchedule()
	s.AppendSlotAssigned([]phys.Link{{From: 0, To: 1}, {From: 2, To: 3}}, []int{0, 1})
	s.AppendSlotAssigned([]phys.Link{{From: 4, To: 5}}, []int{2})
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s) {
		t.Fatal("links did not round-trip")
	}
	for i := 0; i < s.Length(); i++ {
		want, got := s.SlotChannels(i), back.SlotChannels(i)
		if len(want) != len(got) {
			t.Fatalf("slot %d channels: got %v, want %v", i, got, want)
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("slot %d channels: got %v, want %v", i, got, want)
			}
		}
	}

	plain := NewSchedule()
	plain.AppendSlot([]phys.Link{{From: 0, To: 1}})
	data, err = json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"slots":[[[0,1]]]}` {
		t.Fatalf("single-channel encoding changed: %s", data)
	}

	// Mismatched assignment lengths must be rejected.
	if err := json.Unmarshal([]byte(`{"slots":[[[0,1]]],"chans":[[0,1]]}`), &back); err == nil {
		t.Fatal("mismatched chans accepted")
	}
}
