package phys

import (
	"math/rand"
	"testing"
)

func protoModel(t testing.TB, ch *Channel) *ProtocolModel {
	t.Helper()
	// Exclusion region = carrier-sense range at decode sensitivity.
	return NewProtocolModel(ch, ch.NoiseMW()*ch.Beta())
}

func TestProtocolModelSingleLink(t *testing.T) {
	ch := lineChannel(t, 8, 30, 20)
	pm := protoModel(t, ch)
	if !pm.FeasibleSet([]Link{{0, 1}}) {
		t.Error("short lone link should be feasible")
	}
	if pm.FeasibleSet([]Link{{0, 7}}) {
		t.Error("out-of-range link should be infeasible")
	}
}

func TestProtocolModelExclusion(t *testing.T) {
	ch := lineChannel(t, 40, 30, 20)
	pm := protoModel(t, ch)
	// Adjacent links: inside each other's exclusion region.
	if pm.FeasibleSet([]Link{{0, 1}, {3, 4}}) {
		t.Error("nearby links must conflict under the protocol model")
	}
	// Far-apart links: fine.
	if !pm.FeasibleSet([]Link{{0, 1}, {38, 39}}) {
		t.Error("far-apart links should be feasible")
	}
	// Endpoint sharing always conflicts.
	if pm.FeasibleSet([]Link{{0, 1}, {1, 2}}) {
		t.Error("endpoint sharing must conflict")
	}
}

func TestProtocolModelMoreConservativeThanPhysical(t *testing.T) {
	// With the exclusion threshold at decode sensitivity, any set feasible
	// under the protocol model keeps every interferer below the decode
	// power at every receiver; spot-check that protocol-feasible random
	// sets are (almost) always SINR-feasible, and that the physical model
	// accepts sets the protocol model rejects (the capacity gap).
	ch := lineChannel(t, 60, 30, 20)
	pm := protoModel(t, ch)
	rng := rand.New(rand.NewSource(9))
	protoFeasible, physOnly := 0, 0
	for trial := 0; trial < 400; trial++ {
		var links []Link
		used := map[int]bool{}
		for k := 0; k < 5; k++ {
			a := rng.Intn(59)
			if used[a] || used[a+1] {
				continue
			}
			links = append(links, Link{a, a + 1})
			used[a], used[a+1] = true, true
		}
		if len(links) < 2 {
			continue
		}
		proto := pm.FeasibleSet(links)
		physical := ch.FeasibleSet(links)
		if proto {
			protoFeasible++
		}
		if physical && !proto {
			physOnly++
		}
		if proto && !physical {
			// Possible in principle (protocol models mis-predict), but
			// should be rare at this threshold; count as informational.
			t.Logf("trial %d: protocol-feasible but SINR-infeasible: %v", trial, links)
		}
	}
	if physOnly == 0 {
		t.Error("expected sets accepted by the physical model but rejected by the protocol model")
	}
	t.Logf("protocol-feasible %d, physical-only %d of 400 trials", protoFeasible, physOnly)
}
