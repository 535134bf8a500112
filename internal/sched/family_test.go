package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"scream/internal/geom"

	"scream/internal/phys"
	"scream/internal/topo"
)

// naiveFirstFit is the reference admission pass the scheduler family is
// fuzzed against (the naive-reference pattern of the PR 3/5 engines): place
// each link of order into its first demands[i] (slot, channel) pairs —
// slots in order, each slot's channels in ascending order — where adding the
// placement keeps the slot feasible under phys.FeasibleAssignment's full
// re-check over channels channels and radios radios per node: no
// incremental SlotState, no slabs, no radio rows.
func naiveFirstFit(ch *phys.Channel, channels, radios int, links []phys.Link, demands []int, order []int) *Schedule {
	var slots [][]phys.Placement
	for _, ei := range order {
		remaining := demands[ei]
		for slot := 0; remaining > 0; slot++ {
			if slot == len(slots) {
				slots = append(slots, nil)
			}
			for c := 0; c < channels && remaining > 0; c++ {
				cand := append(slices.Clone(slots[slot]), phys.Placement{Link: links[ei], Channel: c})
				if phys.FeasibleAssignment(ch, channels, cand, radios) {
					slots[slot] = cand
					remaining--
				}
			}
		}
	}
	s := NewSchedule()
	for _, sl := range slots {
		ls, cs := make([]phys.Link, len(sl)), make([]int, len(sl))
		for i, p := range sl {
			ls[i], cs[i] = p.Link, p.Channel
		}
		if channels > 1 {
			s.AppendSlotAssigned(ls, cs)
		} else {
			s.AppendSlot(ls)
		}
	}
	return s
}

// naiveFanZhang mirrors ApproxFanZhang with the naive admission pass:
// length classes scheduled longest-first, each on fresh slots.
func naiveFanZhang(ch *phys.Channel, links []phys.Link, demands []int) *Schedule {
	classes := lengthClasses(ch, links, make([]int, len(links)))
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
		sub := naiveFirstFit(ch, 1, 1, links, demands, byClass[c])
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
				want = naiveFirstFit(net.Channel, 1, 1, links, demands, new(Builder).maxWeightOrder(net.Channel, links, demands))
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
	order := new(Builder).maxWeightOrder(net.Channel, links, demands)
	for i, ei := range order {
		if ei != i {
			t.Fatalf("all-tied weights must order by link index: got %v", order)
		}
	}
	// A heavier backlog must jump the queue, ties still by index.
	demands = []int{2, 2, 5, 2}
	order = new(Builder).maxWeightOrder(net.Channel, links, demands)
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
	mw, err := new(Builder).GreedyMaxWeight(net.Channel, links, demands)
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
	s, err := new(Builder).ApproxFanZhang(net.Channel, links, demands)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(net.Channel, links, demands); err != nil {
		t.Fatal(err)
	}
	classes := lengthClasses(net.Channel, links, make([]int, len(links)))
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

// greedyCase is one FuzzGreedyMulti input. Every field decodes modulo its
// range, so any value is a valid case:
//   - Kind: grid (0), uniform (1) or line (2), at 30 m steps or, for a
//     uniform deployment, over a 30·√n m side, every node at the power
//     that reaches 31.5 m;
//   - Size: the grid's side 2–5, the uniform's node count 4–25 or the
//     line's 3–12;
//   - Links: 1–16 distinct communication links, drawn in random order, so
//     nodes share links in both directions;
//   - Channels: 1–4; Radios: 1–3; Order: head-ID, demand or length order;
//   - Seed: the deployment's draws, the links' and their demands (0–3).
type greedyCase struct {
	Kind, Size, Links, Channels, Radios, Order uint8
	Seed                                       int64
}

// instance builds the case's channel, links and demands.
func (c greedyCase) instance() (*phys.Channel, []phys.Link, []int, error) {
	rng := rand.New(rand.NewSource(c.Seed))
	var pts []geom.Point
	var region geom.Rect
	switch c.Kind % 3 {
	case 0:
		dim := 2 + int(c.Size%4)
		pts = topo.GridPositions(dim, dim, 30)
		region = geom.Rect{MaxX: float64(dim-1) * 30, MaxY: float64(dim-1) * 30}
	case 1:
		n := 4 + int(c.Size%22)
		region = geom.Square(30 * math.Sqrt(float64(n)))
		pts = topo.UniformPositions(n, region, rng)
	default:
		n := 3 + int(c.Size%10)
		pts = topo.LinePositions(n, 30)
		region = geom.Rect{MaxX: float64(n-1) * 30}
	}
	params := topo.DefaultParams()
	power := params.PathLoss.PowerForRange(30*1.05, params.NoiseMW, params.Beta)
	net, err := topo.Build(pts, topo.HomogeneousPower(len(pts), power), region, params, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	var links []phys.Link
	for u := 0; u < net.NumNodes(); u++ {
		for _, v := range net.Comm.Neighbors(u) {
			links = append(links, phys.Link{From: u, To: v})
		}
	}
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	links = links[:min(len(links), 1+int(c.Links%16))]
	demands := make([]int, len(links))
	for i := range demands {
		demands[i] = rng.Intn(4)
	}
	return net.Channel, links, demands, nil
}

// sameSlots reports how got differs from want slot by slot, in order and
// channel (an unrecorded assignment is all channel 0), or nil.
func sameSlots(got, want *Schedule) error {
	if got.Length() != want.Length() {
		return fmt.Errorf("%d slots, want %d", got.Length(), want.Length())
	}
	chans := func(s *Schedule, i int) []int {
		if c := s.SlotChannels(i); c != nil {
			return c
		}
		return make([]int, len(s.Slot(i)))
	}
	for i := 0; i < got.Length(); i++ {
		if !slices.Equal(got.Slot(i), want.Slot(i)) || !slices.Equal(chans(got, i), chans(want, i)) {
			return fmt.Errorf("slot %d is %v on channels %v, want %v on %v", i, got.Slot(i), chans(got, i), want.Slot(i), chans(want, i))
		}
	}
	return nil
}

// FuzzGreedyMulti pins the one admission pass to naiveFirstFit on generated
// deployments at every channel count, radio budget and ordering: on a fresh
// Builder and on one that has just built a heavier schedule over another
// channel count, GreedyPhysicalMulti must equal the reference slot by slot,
// in order and channel, and pass VerifyMulti.
func FuzzGreedyMulti(f *testing.F) {
	for _, c := range []greedyCase{
		{Kind: 0, Size: 3, Links: 15, Channels: 0, Radios: 0, Order: 0, Seed: 1},
		{Kind: 0, Size: 2, Links: 15, Channels: 1, Radios: 1, Order: 0, Seed: 2},
		{Kind: 0, Size: 3, Links: 11, Channels: 3, Radios: 1, Order: 1, Seed: 3},
		{Kind: 1, Size: 10, Links: 15, Channels: 2, Radios: 2, Order: 1, Seed: 4},
		{Kind: 1, Size: 21, Links: 13, Channels: 1, Radios: 0, Order: 2, Seed: 5},
		{Kind: 2, Size: 9, Links: 15, Channels: 3, Radios: 0, Order: 2, Seed: 6},
		{Kind: 2, Size: 5, Links: 7, Channels: 1, Radios: 2, Order: 0, Seed: 7},
		{Kind: 2, Size: 1, Links: 3, Channels: 2, Radios: 1, Order: 1, Seed: 8},
	} {
		f.Add(c.Kind, c.Size, c.Links, c.Channels, c.Radios, c.Order, c.Seed)
	}
	f.Fuzz(func(t *testing.T, kind, size, nlinks, channels, radios, order uint8, seed int64) {
		c := greedyCase{kind, size, nlinks, channels, radios, order, seed}
		ch, links, demands, err := c.instance()
		if err != nil {
			t.Fatal(err)
		}
		C, R, ord := 1+int(c.Channels%4), 1+int(c.Radios%3), Ordering(1+c.Order%3)
		want := naiveFirstFit(ch, C, R, links, demands, new(Builder).orderEdges(ch, links, demands, ord))
		var reused Builder
		heavier := make([]int, len(demands))
		for i, d := range demands {
			heavier[i] = d + 2
		}
		if _, err := reused.GreedyPhysicalMulti(ch, 1+C%4, R, links, heavier, ord); err != nil {
			t.Fatal(err)
		}
		for _, b := range []struct {
			name string
			*Builder
		}{{"fresh", new(Builder)}, {"reused", &reused}} {
			got, err := b.GreedyPhysicalMulti(ch, C, R, links, demands, ord)
			if err != nil {
				t.Fatalf("%s builder, C=%d R=%d %v: %v", b.name, C, R, ord, err)
			}
			if err := sameSlots(got, want); err != nil {
				t.Fatalf("%s builder, C=%d R=%d %v, links %v demands %v: %v", b.name, C, R, ord, links, demands, err)
			}
			if err := got.VerifyMulti(ch, C, R, links, demands); err != nil {
				t.Fatalf("%s builder, C=%d R=%d %v: %v", b.name, C, R, ord, err)
			}
		}
	})
}
