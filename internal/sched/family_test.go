package sched

import (
	"math/rand"
	"sort"
	"testing"

	"scream/internal/phys"
	"scream/internal/topo"
)

// naiveFirstFit is the reference admission pass the scheduler family is
// fuzzed against (the naive-reference pattern of the PR 3/5 engines): place
// each link of order into its first demands[i] slots where appending it
// keeps the slot feasible under the full FeasibleSet re-check — no
// incremental SlotState, no slabs.
func naiveFirstFit(ch *phys.Channel, links []phys.Link, demands []int, order []int) *Schedule {
	var slots [][]phys.Link
	for _, ei := range order {
		remaining := demands[ei]
		for slot := 0; remaining > 0; slot++ {
			if slot == len(slots) {
				slots = append(slots, nil)
			}
			cand := append(append([]phys.Link(nil), slots[slot]...), links[ei])
			if ch.FeasibleSet(cand) {
				slots[slot] = cand
				remaining--
			}
		}
	}
	s := NewSchedule()
	for _, sl := range slots {
		s.AppendSlot(sl)
	}
	return s
}

// naiveFanZhang mirrors ApproxFanZhang with the naive admission pass:
// length classes scheduled longest-first, each on fresh slots.
func naiveFanZhang(ch *phys.Channel, links []phys.Link, demands []int) *Schedule {
	classes := LengthClasses(ch, links)
	byClass := make(map[int][]int)
	for i := range links {
		byClass[classes[i]] = append(byClass[classes[i]], i)
	}
	var order []int
	for c := range byClass {
		order = append(order, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(order)))
	s := NewSchedule()
	for _, c := range order {
		sub := naiveFirstFit(ch, links, demands, byClass[c])
		for i := 0; i < sub.Length(); i++ {
			s.AppendSlot(sub.Slot(i))
		}
	}
	return s
}

// fuzzInstance draws a random sub-instance of the given mesh: a subset of
// its forest links with demands in [0, 3].
func fuzzInstance(rng *rand.Rand, links []phys.Link) ([]phys.Link, []int) {
	n := 2 + rng.Intn(8)
	perm := rng.Perm(len(links))
	var fl []phys.Link
	var fd []int
	for _, i := range perm[:min(n, len(links))] {
		fl = append(fl, links[i])
		fd = append(fd, rng.Intn(4))
	}
	return fl, fd
}

// TestFamilyMatchesNaiveReferenceFuzzed pins every registered scheduler to
// its naive reference on random small instances: identical schedules
// (multiset-per-slot equality) and a passing Verify. This is the property
// that lets the slab/SlotState fast paths stand in for the obviously-correct
// admission loop.
func TestFamilyMatchesNaiveReferenceFuzzed(t *testing.T) {
	net, allLinks, _ := testMesh(t, 5, 11)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		links, demands := fuzzInstance(rng, allLinks)
		for _, b := range backends() {
			got, err := b.Build(net.Channel, links, demands)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, b.Name, err)
			}
			if err := got.Verify(net.Channel, links, demands); err != nil {
				t.Fatalf("trial %d %s: %v", trial, b.Name, err)
			}
			var want *Schedule
			switch b.Name {
			case "maxweight":
				want = naiveFirstFit(net.Channel, links, demands, MaxWeightOrder(net.Channel, links, demands))
			case "fanzhang":
				want = naiveFanZhang(net.Channel, links, demands)
			default:
				continue // static greedy orderings are pinned by the PR 3 engine tests
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d %s: schedule diverges from naive reference\nlinks=%v demands=%v\ngot %d slots, want %d",
					trial, b.Name, links, demands, got.Length(), want.Length())
			}
		}
	}
}

// TestMaxWeightOrderTieBreak pins the determinism contract of the
// backlog-ordered scheduler: equal backlog×rate weights must break by
// ascending link index, so figures built from backlog snapshots are
// byte-identical for any worker count.
func TestMaxWeightOrderTieBreak(t *testing.T) {
	net, err := topo.NewLine(12, 30, topo.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Equal-length, equal-demand links: every weight ties, so the order must
	// be exactly ascending link index.
	links := []phys.Link{{From: 0, To: 1}, {From: 3, To: 4}, {From: 6, To: 7}, {From: 9, To: 10}}
	demands := []int{2, 2, 2, 2}
	order := MaxWeightOrder(net.Channel, links, demands)
	for i, ei := range order {
		if ei != i {
			t.Fatalf("all-tied weights must order by link index: got %v", order)
		}
	}
	// A heavier backlog must jump the queue, ties still by index.
	demands = []int{2, 2, 5, 2}
	order = MaxWeightOrder(net.Channel, links, demands)
	want := []int{2, 0, 1, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("skewed backlog order = %v, want %v", order, want)
		}
	}
}

// TestMaxWeightPrefersBackloggedLinks checks the scheduling substance behind
// the ordering: under a skewed backlog, the hot link's transmissions finish
// no later under max-weight than under the static head-ID order.
func TestMaxWeightPrefersBackloggedLinks(t *testing.T) {
	net, links, _ := testMesh(t, 5, 3)
	demands := make([]int, len(links))
	hot := 0
	for i := range demands {
		demands[i] = 1
	}
	demands[hot] = 12
	mw, err := GreedyMaxWeight(net.Channel, links, demands)
	if err != nil {
		t.Fatal(err)
	}
	static, err := GreedyPhysical(net.Channel, links, demands, ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	lastSlot := func(s *Schedule, l phys.Link) int {
		last := -1
		for i := 0; i < s.Length(); i++ {
			for _, m := range s.Slot(i) {
				if m == l {
					last = i
				}
			}
		}
		return last
	}
	if mwLast, stLast := lastSlot(mw, links[hot]), lastSlot(static, links[hot]); mwLast > stLast {
		t.Errorf("max-weight finishes hot link at slot %d, static greedy at %d", mwLast, stLast)
	}
}

// TestFanZhangClassStructure checks the partition invariant that carries the
// approximation argument: no slot of the Fan-Zhang schedule mixes links from
// different length classes.
func TestFanZhangClassStructure(t *testing.T) {
	net, links, demands := testMesh(t, 5, 7)
	s, err := ApproxFanZhang(net.Channel, links, demands)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(net.Channel, links, demands); err != nil {
		t.Fatal(err)
	}
	classes := LengthClasses(net.Channel, links)
	classOf := make(map[phys.Link]int, len(links))
	for i, l := range links {
		classOf[l] = classes[i]
	}
	for i := 0; i < s.Length(); i++ {
		slot := s.Slot(i)
		for _, l := range slot[1:] {
			if classOf[l] != classOf[slot[0]] {
				t.Fatalf("slot %d mixes length classes %d and %d", i, classOf[slot[0]], classOf[l])
			}
		}
	}
}
