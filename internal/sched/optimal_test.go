package sched

import (
	"math/rand"
	"testing"

	"scream/internal/phys"
	"scream/internal/topo"
)

func TestOptimalLengthSmallLine(t *testing.T) {
	net, err := topo.NewLine(16, 30, topo.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Three well-separated unit-demand links: all three fit in one slot
	// only if SINR allows; the DP must find the true minimum.
	links := []phys.Link{{From: 0, To: 1}, {From: 7, To: 8}, {From: 14, To: 15}}
	demands := []int{1, 1, 1}
	opt, err := OptimalLength(net.Channel, links, demands)
	if err != nil {
		t.Fatal(err)
	}
	if net.Channel.FeasibleSet(links) {
		if opt != 1 {
			t.Errorf("all-concurrent set should give OPT=1, got %d", opt)
		}
	} else if opt < 2 || opt > 3 {
		t.Errorf("OPT = %d out of plausible range", opt)
	}
	// Greedy can never beat the optimum.
	g, err := GreedyPhysical(net.Channel, links, demands, ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Length() < opt {
		t.Fatalf("greedy (%d) beat the optimum (%d): DP is wrong", g.Length(), opt)
	}
}

func TestOptimalLengthConflicts(t *testing.T) {
	net, err := topo.NewLine(6, 30, topo.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Chain of overlapping links: pairwise endpoint conflicts force full
	// serialization.
	links := []phys.Link{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}
	opt, err := OptimalLength(net.Channel, links, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if opt != 3 {
		t.Errorf("chained links must serialize: OPT = %d, want 3", opt)
	}
}

func TestOptimalLengthErrors(t *testing.T) {
	net, err := topo.NewLine(25, 30, topo.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OptimalLength(net.Channel, []phys.Link{{From: 0, To: 1}}, []int{1, 1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := OptimalLength(net.Channel, []phys.Link{{From: 0, To: 1}}, []int{-1}); err == nil {
		t.Error("negative demand should fail")
	}
	if _, err := OptimalLength(net.Channel, []phys.Link{{From: 0, To: 24}}, []int{1}); err == nil {
		t.Error("unschedulable link should fail")
	}
	big := make([]phys.Link, 21)
	bigD := make([]int, 21)
	for i := range big {
		big[i] = phys.Link{From: i, To: i + 1}
		bigD[i] = 1
	}
	if _, err := OptimalLength(net.Channel, big, bigD); err == nil {
		t.Error("too many links should fail")
	}
	// The general-demand DP is bounded by its residual state space,
	// prod(d_i+1) <= 2^21: eight links of demand 7 need 8^8 ~ 16.7M states.
	var fatLinks []phys.Link
	var fatD []int
	for i := 0; i < 8; i++ {
		fatLinks = append(fatLinks, phys.Link{From: 3 * i, To: 3*i + 1})
		fatD = append(fatD, 7)
	}
	if _, err := OptimalLength(net.Channel, fatLinks, fatD); err == nil {
		t.Error("oversized demand state space should fail")
	}
	if got, err := OptimalLength(net.Channel, nil, nil); err != nil || got != 0 {
		t.Errorf("empty instance should be 0, got %d, %v", got, err)
	}
	// All-zero demands need no slots, and zero-demand links must not count
	// against the 20-link limit.
	if got, err := OptimalLength(net.Channel, []phys.Link{{From: 0, To: 1}}, []int{0}); err != nil || got != 0 {
		t.Errorf("zero-demand instance should be 0, got %d, %v", got, err)
	}
	zeros := make([]phys.Link, 30)
	zeroD := make([]int, 30)
	for i := range zeros {
		zeros[i] = phys.Link{From: i % 24, To: i%24 + 1}
	}
	zeros = append(zeros, phys.Link{From: 0, To: 1})
	zeroD = append(zeroD, 1)
	if got, err := OptimalLength(net.Channel, zeros, zeroD); err != nil || got != 1 {
		t.Errorf("zero-demand links must be dropped before the link limit: got %d, %v", got, err)
	}
}

// TestOptimalLengthGeneralDemands exercises the non-unit-demand DP against
// exactly solvable instances: a fully conflicting chain must serialize to the
// demand total, a mutually feasible well-separated set needs exactly the
// maximum demand, and on mixed instances the exact value must bracket
// between the trivial lower bounds and every greedy backend's length — the
// flow layer's real (aggregated, non-unit) demand vectors are what the gap
// harness feeds this solver.
func TestOptimalLengthGeneralDemands(t *testing.T) {
	net, err := topo.NewLine(16, 30, topo.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Chained links: pairwise primary conflicts force full serialization.
	chain := []phys.Link{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}
	opt, err := OptimalLength(net.Channel, chain, []int{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if opt != 6 {
		t.Errorf("conflicting chain with demands 3+1+2: OPT = %d, want 6", opt)
	}
	// Well-separated links: if they are mutually feasible, the schedule is
	// bottlenecked by the heaviest link alone.
	apart := []phys.Link{{From: 0, To: 1}, {From: 7, To: 8}, {From: 14, To: 15}}
	demands := []int{4, 2, 1}
	opt, err = OptimalLength(net.Channel, apart, demands)
	if err != nil {
		t.Fatal(err)
	}
	if net.Channel.FeasibleSet(apart) {
		if opt != 4 {
			t.Errorf("concurrent-feasible set: OPT = %d, want max demand 4", opt)
		}
	} else if opt < 4 || opt > 7 {
		t.Errorf("OPT = %d outside [4, 7]", opt)
	}
	// Every registered backend's schedule is an upper bound; max demand and
	// the unit-demand optimum are lower bounds.
	unitD := []int{1, 1, 1}
	unitOpt, err := OptimalLength(net.Channel, apart, unitD)
	if err != nil {
		t.Fatal(err)
	}
	if opt < unitOpt {
		t.Errorf("general OPT %d below unit OPT %d", opt, unitOpt)
	}
	for _, b := range backends() {
		s, err := b.Build(net.Channel, apart, demands)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := s.Verify(net.Channel, apart, demands); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if s.Length() < opt {
			t.Errorf("%s length %d beat the optimum %d: DP is wrong", b.Name, s.Length(), opt)
		}
	}
}

// TestGreedyWithinSmallFactorOfOptimal is the empirical face of the
// approximation bound (Theorem 4): on random small instances the greedy
// schedule must stay within a small constant of the exact optimum (the
// theoretical bound is far looser).
func TestGreedyWithinSmallFactorOfOptimal(t *testing.T) {
	net, err := topo.NewLine(40, 30, topo.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	worst := 1.0
	for trial := 0; trial < 40; trial++ {
		var links []phys.Link
		used := map[int]bool{}
		for len(links) < 8 {
			a := rng.Intn(39)
			if used[a] || used[a+1] {
				continue
			}
			dir := phys.Link{From: a, To: a + 1}
			if rng.Intn(2) == 0 {
				dir = phys.Link{From: dir.To, To: dir.From}
			}
			links = append(links, dir)
			used[a], used[a+1] = true, true
		}
		demands := make([]int, len(links))
		for i := range demands {
			demands[i] = 1
		}
		opt, err := OptimalLength(net.Channel, links, demands)
		if err != nil {
			t.Fatal(err)
		}
		g, err := GreedyPhysical(net.Channel, links, demands, ByHeadIDDesc)
		if err != nil {
			t.Fatal(err)
		}
		if g.Length() < opt {
			t.Fatalf("greedy %d < OPT %d: impossible", g.Length(), opt)
		}
		if ratio := float64(g.Length()) / float64(opt); ratio > worst {
			worst = ratio
		}
	}
	if worst > 2.5 {
		t.Errorf("greedy/OPT worst ratio %.2f unexpectedly large for 8-link instances", worst)
	}
	t.Logf("worst greedy/OPT ratio over 40 instances: %.2f", worst)
}

func TestGreedyProtocolLongerThanPhysical(t *testing.T) {
	// The capacity claim of the paper's introduction: scheduling under the
	// protocol model (CSMA/CA-style exclusion around every active node at
	// carrier-sense range) yields longer schedules than SINR-based
	// scheduling on the same workload. This requires a realistic radio
	// with SNR margin (fixed 20 dBm power): CSMA's exclusion region is
	// then far larger than the SINR-required separation. (With razor-thin
	// margins the two models are incomparable — the protocol model can
	// even accept SINR-infeasible sets, since it ignores aggregation.)
	net, err := topo.NewGrid(topo.GridConfig{
		Rows: 6, Cols: 6, Step: 30,
		TxPowerMW: phys.DBm(20).MilliWatts(),
		Params:    topo.DefaultParams(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Build a simple workload: every grid row carries flows to the left.
	var ls []phys.Link
	var ds []int
	for r := 0; r < 6; r++ {
		for c := 1; c < 6; c++ {
			ls = append(ls, phys.Link{From: r*6 + c, To: r*6 + c - 1})
			ds = append(ds, 1)
		}
	}
	pm := phys.NewProtocolModel(net.Channel, net.Params.CSThresholdMW)
	proto, err := GreedyProtocol(pm, ls, ds, ByHeadIDDesc, net.Channel)
	if err != nil {
		t.Fatal(err)
	}
	physSched, err := GreedyPhysical(net.Channel, ls, ds, ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	if physSched.Length() > proto.Length() {
		t.Errorf("physical-model schedule (%d) should not be longer than protocol-model (%d)",
			physSched.Length(), proto.Length())
	}
	t.Logf("protocol model: %d slots, physical model: %d slots (capacity gain %.0f%%)",
		proto.Length(), physSched.Length(),
		100*float64(proto.Length()-physSched.Length())/float64(proto.Length()))
	// Verify the physical schedule truly is feasible.
	if err := physSched.Verify(net.Channel, ls, ds); err != nil {
		t.Fatal(err)
	}
}
