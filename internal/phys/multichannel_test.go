package phys

import (
	"math/rand"
	"testing"
)

// mapAssignment is FeasibleAssignment as the per-channel model states it,
// with no care for allocations: a radio count per node in a map and one
// link list per channel index.
func mapAssignment(base *Channel, channels int, placements []Placement, numRadios int) bool {
	radios := make(map[int]int)
	perChan := make([][]Link, channels)
	for _, p := range placements {
		if p.Channel < 0 || p.Channel >= channels {
			return false
		}
		perChan[p.Channel] = append(perChan[p.Channel], p.Link)
		radios[p.Link.From]++
		radios[p.Link.To]++
	}
	for _, used := range radios {
		if used > max(numRadios, 1) {
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

// TestFeasibleAssignment pins the radio budget at a relay, then compares
// FeasibleAssignment with mapAssignment on random placements — arbitrary
// links, shared endpoints and self loops, channel indices one past either
// end of the range, radio budgets 0 to 3 — and requires that it allocates
// nothing.
func TestFeasibleAssignment(t *testing.T) {
	ch := lineChannel(t, 24, 35, 20)
	// Two links through relay node 12, on one channel or on two.
	up, down := Link{From: 11, To: 12}, Link{From: 12, To: 13}
	two := []Placement{{up, 0}, {down, 1}}
	for _, c := range []struct {
		name     string
		channels int
		ps       []Placement
		radios   int
		want     bool
	}{
		{"two channels, one radio", 2, two, 1, false},
		{"two channels, two radios", 2, two, 2, true},
		{"one channel, two radios", 2, []Placement{{up, 0}, {down, 0}}, 2, false},
		{"three placements, two radios", 3, append(two, Placement{Link{From: 12, To: 11}, 2}), 2, false},
	} {
		if got := FeasibleAssignment(ch, c.channels, c.ps, c.radios); got != c.want {
			t.Errorf("%s: FeasibleAssignment = %v, want %v", c.name, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(19))
	accepts, rejects := 0, 0
	for trial := 0; trial < 3000; trial++ {
		channels, radios := 1+rng.Intn(4), rng.Intn(4)
		ps := make([]Placement, rng.Intn(7))
		for i := range ps {
			ps[i] = Placement{Link: randomLink(rng, 24), Channel: rng.Intn(channels+2) - 1}
			if rng.Intn(4) > 0 {
				// Mostly in range, so the SINR and radio checks decide.
				ps[i].Channel = rng.Intn(channels)
			}
		}
		got, want := FeasibleAssignment(ch, channels, ps, radios), mapAssignment(ch, channels, ps, radios)
		if got != want {
			t.Fatalf("trial %d: FeasibleAssignment(C=%d, R=%d, %v) = %v, per-channel sets say %v", trial, channels, radios, ps, got, want)
		}
		if got {
			accepts++
		} else {
			rejects++
		}
	}
	if accepts < 100 || rejects < 100 {
		t.Fatalf("too few of each outcome: %d accepted, %d rejected", accepts, rejects)
	}
	if n := testing.AllocsPerRun(20, func() { FeasibleAssignment(ch, 3, two, 2) }); n != 0 {
		t.Fatalf("FeasibleAssignment allocates %v times per call", n)
	}
}
