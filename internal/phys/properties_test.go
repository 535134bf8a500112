package phys

// Property-based tests on the invariants the schedulers rely on.

import (
	"math/rand"
	"testing"

	"scream/internal/geom"
)

// TestFeasibilityDownwardClosed: removing links from a feasible set can only
// reduce interference, so every subset of a feasible set is feasible. The
// exact-optimal DP and the greedy schedulers both rest on this.
func TestFeasibilityDownwardClosed(t *testing.T) {
	ch := lineChannel(t, 30, 35, 20)
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for trial := 0; trial < 500; trial++ {
		var links []Link
		used := map[int]bool{}
		for k := 0; k < 5; k++ {
			a := rng.Intn(29)
			if used[a] || used[a+1] {
				continue
			}
			links = append(links, Link{From: a, To: a + 1})
			used[a], used[a+1] = true, true
		}
		if len(links) < 2 || !ch.FeasibleSet(links) {
			continue
		}
		checked++
		// Drop one random link; the remainder must stay feasible.
		i := rng.Intn(len(links))
		sub := append(append([]Link(nil), links[:i]...), links[i+1:]...)
		if !ch.FeasibleSet(sub) {
			t.Fatalf("subset of feasible set infeasible: %v minus %v", links, links[i])
		}
	}
	if checked == 0 {
		t.Fatal("no feasible sets sampled; widen the generator")
	}
	t.Logf("downward closure checked on %d feasible sets", checked)
}

// TestFeasibilityInterferenceMonotone: adding transmit power to an
// interferer can never turn an infeasible set feasible.
func TestFeasibilityInterferenceMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 12
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: rng.Float64() * 300}
		}
		gain := BuildGainMatrix(pos, DefaultLogDistance(), nil)
		base := DBm(14).MilliWatts()
		mk := func(boost int) *Channel {
			pw := make([]float64, n)
			for i := range pw {
				pw[i] = base
			}
			if boost >= 0 {
				pw[boost] *= 4
			}
			ch, err := NewChannel(pw, gain, DBm(-96).MilliWatts(), DB(10).Linear())
			if err != nil {
				t.Fatal(err)
			}
			return ch
		}
		links := []Link{{From: 0, To: 1}, {From: 4, To: 5}}
		plain := mk(-1)
		if plain.FeasibleSet(links) {
			continue
		}
		// Boosting a pure interferer (node 8) must keep it infeasible.
		if mk(8).FeasibleSet(links) {
			t.Fatalf("trial %d: boosting an interferer made an infeasible set feasible", trial)
		}
	}
}

// TestHandshakeNeverSucceedsWhereFeasibleSetForbids: for any set, a link
// whose handshake succeeds while ALL links' data decoded must satisfy the
// same inequalities FeasibleSet checks for it.
func TestHandshakeConsistentWithModel(t *testing.T) {
	ch := lineChannel(t, 24, 35, 20)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		var links []Link
		used := map[int]bool{}
		for k := 0; k < 4; k++ {
			a := rng.Intn(23)
			if used[a] || used[a+1] {
				continue
			}
			links = append(links, Link{From: a, To: a + 1})
			used[a], used[a+1] = true, true
		}
		if len(links) == 0 {
			continue
		}
		out := ch.HandshakeOutcome(links)
		allOK := true
		for _, ok := range out {
			allOK = allOK && ok
		}
		if allOK != ch.FeasibleSet(links) {
			// When every handshake succeeds, the ACK senders are exactly
			// all receivers, so the dynamics reduce to the model.
			t.Fatalf("trial %d: all-handshakes-succeed (%v) disagrees with FeasibleSet (%v) for %v",
				trial, allOK, ch.FeasibleSet(links), links)
		}
	}
}

// TestSlotStateOrderIndependence: the set accepted by a slot is feasible
// regardless of insertion order, and CanAdd agrees with FeasibleSet on the
// union at every step.
func TestSlotStateOrderIndependence(t *testing.T) {
	ch := lineChannel(t, 20, 35, 20)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var links []Link
		used := map[int]bool{}
		for k := 0; k < 4; k++ {
			a := rng.Intn(19)
			if used[a] || used[a+1] {
				continue
			}
			links = append(links, Link{From: a, To: a + 1})
			used[a], used[a+1] = true, true
		}
		if len(links) < 2 {
			continue
		}
		feasible := ch.FeasibleSet(links)
		// Insert in two different orders; both must accept all iff feasible.
		for pass := 0; pass < 2; pass++ {
			order := make([]int, len(links))
			for i := range order {
				order[i] = i
			}
			if pass == 1 {
				for i := len(order) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					order[i], order[j] = order[j], order[i]
				}
			}
			sc := NewSlotState(ch)
			acceptedAll := true
			for _, i := range order {
				if c := NewCandidate(ch, links[i]); sc.CanAdd(c) {
					sc.Add(c)
				} else {
					acceptedAll = false
				}
			}
			if feasible && !acceptedAll {
				t.Fatalf("trial %d pass %d: checker rejected a member of a feasible set %v", trial, pass, links)
			}
			if !feasible && acceptedAll {
				t.Fatalf("trial %d pass %d: checker accepted all of an infeasible set %v", trial, pass, links)
			}
		}
	}
}
