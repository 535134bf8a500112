package sched

import (
	"cmp"
	"fmt"
	"slices"

	"scream/internal/graph"
	"scream/internal/phys"
)

// Ordering selects how GreedyPhysical ranks edges before the greedy pass.
// The approximation bound of the MobiCom 2006 paper holds for any fixed
// ordering (as observed in the proof of Theorem 4), so the choice is a
// quality/structure knob, not a correctness one.
type Ordering int

const (
	// ByHeadIDDesc considers edges in decreasing order of the owner
	// (head) node's ID — the variant GreedyPhysical that FDD emulates
	// exactly (Theorem 4).
	ByHeadIDDesc Ordering = iota + 1
	// ByDemandDesc considers heavier edges first.
	ByDemandDesc
	// ByLengthDesc considers physically longer links first (they are the
	// most interference-fragile, mirroring the MobiCom 2006 heuristic).
	ByLengthDesc
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case ByHeadIDDesc:
		return "head-id-desc"
	case ByDemandDesc:
		return "demand-desc"
	case ByLengthDesc:
		return "length-desc"
	default:
		return fmt.Sprintf("ordering(%d)", int(o))
	}
}

// Builder is the working set of the greedy admission pass: the slot states
// a build fills, the admission order and its sort counts. A scheduler that
// rebuilds its schedule every epoch owns one Builder for the whole run, so
// each build re-initialises the slots of the last one instead of allocating
// them again, and a repeated build allocates only the schedule it returns.
// The one-shot functions (GreedyPhysical, GreedyPhysicalMulti,
// GreedyMaxWeight, ApproxFanZhang) run on a fresh Builder. The zero Builder
// is ready to use; a Builder is not safe for concurrent use, and the
// schedules it returns share no memory with it.
type Builder struct {
	// Slot states live in fixed-size slabs: a build touches tens to hundreds
	// of slots, and one heap allocation per slot (or copying the states
	// around as a flat slice grows) would dominate the incremental
	// feasibility checks themselves. Slabs never move, which SlotState's
	// inline small-slot storage requires.
	slabs []*[slabSize]phys.SlotState
	slots []*phys.SlotState      // slot i of every build: slabs[i/slabSize][i%slabSize]
	multi []*phys.MultiSlotState // the multi-channel slots, for channels > 1

	order   []int     // admission order: indices into links
	counts  []int     // head-ID counting sort: links per head, then positions
	weights []float64 // max-weight keys
	classes []int     // Fan-Zhang length classes
}

const slabSize = 64

// orderEdges returns the indices of links in scheduling order.
func orderEdges(ch phys.Engine, links []phys.Link, demands []int, ord Ordering) []int {
	return new(Builder).orderEdges(ch, links, demands, ord)
}

// orderEdges returns the indices of links in scheduling order, in the
// builder's order buffer.
func (b *Builder) orderEdges(ch phys.Engine, links []phys.Link, demands []int, ord Ordering) []int {
	idx := resized(&b.order, len(links))
	switch n := ch.NumNodes(); {
	case ord == ByDemandDesc:
		identity(idx)
		slices.SortStableFunc(idx, func(a, b int) int {
			if c := cmp.Compare(demands[b], demands[a]); c != 0 {
				return c
			}
			return cmp.Compare(links[b].From, links[a].From)
		})
	case ord == ByLengthDesc:
		identity(idx)
		slices.SortStableFunc(idx, func(a, b int) int {
			// Longer link <=> smaller direct gain.
			ga := ch.Gain(links[a].From, links[a].To)
			gb := ch.Gain(links[b].From, links[b].To)
			if c := cmp.Compare(ga, gb); c != 0 {
				return c
			}
			return cmp.Compare(links[b].From, links[a].From)
		})
	case n > 2*len(links):
		// ByHeadIDDesc over far fewer links than nodes — a link sample of a
		// large deployment — where clearing a count per node would cost more
		// than sorting the links.
		identity(idx)
		slices.SortStableFunc(idx, func(a, b int) int {
			return cmp.Compare(links[b].From, links[a].From)
		})
	default: // ByHeadIDDesc
		// A stable counting sort on the head ID, descending: the order the
		// stable comparison sort above gives, ties in index order, in
		// O(nodes + links).
		counts := resized(&b.counts, n)
		clear(counts)
		for _, l := range links {
			counts[l.From]++
		}
		next := 0
		for head := n - 1; head >= 0; head-- {
			counts[head], next = next, next+counts[head]
		}
		for i, l := range links {
			idx[counts[l.From]] = i
			counts[l.From]++
		}
	}
	return idx
}

// identity sets idx[i] = i.
func identity(idx []int) {
	for i := range idx {
		idx[i] = i
	}
}

// resized returns (*buf)[:n], first replacing *buf when it is too short.
func resized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// GreedyPhysical computes a feasible schedule with the centralized greedy
// algorithm of the MobiCom 2006 paper: edges are considered in the given
// order; each edge is placed into the first demands[i] slots in which adding
// it keeps the slot feasible, appending new slots when needed. The returned
// schedule always satisfies Verify against the same inputs.
func GreedyPhysical(ch phys.Engine, links []phys.Link, demands []int, ord Ordering) (*Schedule, error) {
	return new(Builder).greedy(ch, links, demands, ord, false)
}

// GreedyPhysicalDataOnly is GreedyPhysical with the ACK sub-slot inequality
// disabled (ablation: the original Gupta-Kumar physical model without the
// paper's link-layer-reliability extension). Its schedules may fail Verify
// under the full model; CountInfeasibleSlots quantifies by how much.
func GreedyPhysicalDataOnly(ch phys.Engine, links []phys.Link, demands []int, ord Ordering) (*Schedule, error) {
	return new(Builder).greedy(ch, links, demands, ord, true)
}

func (b *Builder) greedy(ch phys.Engine, links []phys.Link, demands []int, ord Ordering, dataOnly bool) (*Schedule, error) {
	if len(links) != len(demands) {
		return nil, fmt.Errorf("sched: %d links vs %d demands", len(links), len(demands))
	}
	return b.ordered(ch, links, demands, b.orderEdges(ch, links, demands, ord), dataOnly)
}

// ordered runs the admission pass over order and materializes its slots
// as a new schedule.
func (b *Builder) ordered(ch phys.Engine, links []phys.Link, demands []int, order []int, dataOnly bool) (*Schedule, error) {
	k, err := b.admit(ch, links, demands, order, dataOnly, 0)
	if err != nil {
		return nil, err
	}
	recordBuild(b.slots[:k])
	s := &Schedule{slots: make([][]phys.Link, 0, k)}
	b.appendSlots(s, k)
	return s, nil
}

// singletonFeasible reports whether c alone can occupy a slot: both the
// data and the ACK transmission must clear beta against noise with no
// interference. This is exactly Channel.FeasibleSet on a one-link set
// (self-loops fail through their zero self-gain), phrased over the Engine
// interface so any engine can answer it — and since SignalMW is exact on
// every engine, all engines agree on it.
func singletonFeasible(ch phys.Engine, c phys.Candidate) bool {
	floor := ch.Beta() * ch.NoiseMW()
	return c.DataMW >= floor && c.AckMW >= floor
}

// admit runs the first-fit greedy admission pass over the links named by
// order (indices into links/demands), in that order, on fresh slots from
// b.slots[first] on, and returns the end of the slots it filled: they are
// b.slots[first:end]. Links absent from order are ignored — the Fan-Zhang
// class scheduler exploits this to run the engine on one length class at a
// time, each class on the slots after the last class's.
func (b *Builder) admit(ch phys.Engine, links []phys.Link, demands []int, order []int, dataOnly bool, first int) (int, error) {
	used := first
	for _, ei := range order {
		// The link's exact signals, computed once per build: they decide its
		// singleton feasibility here and every admission probe below. Links
		// are checked in order, so invalid input fails on its first bad link.
		c := phys.NewCandidate(ch, links[ei])
		if !singletonFeasible(ch, c) {
			return 0, fmt.Errorf("sched: link %v alone is infeasible; no schedule exists", c.Link)
		}
		remaining := demands[ei]
		if remaining < 0 {
			return 0, fmt.Errorf("sched: link %v has negative demand %d", c.Link, remaining)
		}
		for slot := first; remaining > 0; slot++ {
			if slot == used {
				// A new slot of this build: the next state of the working
				// set, re-initialised, or a new slab's first.
				if slot == len(b.slots) {
					if slot%slabSize == 0 {
						b.slabs = append(b.slabs, new([slabSize]phys.SlotState))
					}
					b.slots = append(b.slots, &b.slabs[slot/slabSize][slot%slabSize])
				}
				if dataOnly {
					b.slots[slot].InitEngineDataOnly(ch)
				} else {
					b.slots[slot].InitEngine(ch)
				}
				used++
			}
			if st := b.slots[slot]; st.CanAdd(c) {
				st.Add(c)
				remaining--
			}
		}
	}
	return used, nil
}

// appendSlots appends the first k slots of the last admission pass to s.
// Their links, in admission order, are copied into one new array; each
// slot's slice is capped at its own end, so appending to one slot can never
// write into the next. A slot is only ever created by a link that then
// joins it (singleton feasibility was pre-validated), so none is empty.
func (b *Builder) appendSlots(s *Schedule, k int) {
	total := 0
	for _, st := range b.slots[:k] {
		total += st.Len()
	}
	flat := make([]phys.Link, 0, total)
	for _, st := range b.slots[:k] {
		start := len(flat)
		flat = st.AppendLinks(flat)
		s.slots = append(s.slots, flat[start:len(flat):len(flat)])
	}
}

// GreedyPhysicalMulti generalizes GreedyPhysical to channels orthogonal
// copies of eng and numRadios radios per node: edges are considered in the
// given order; each edge is placed first-fit over (slot, channel) pairs —
// slots in order, the channels of each slot in ascending order — wherever the
// multi-channel slot stays feasible (per-channel SINR, per-node radio
// budget), appending new slots as needed. With more than one radio per node
// an edge may ride several channels of the same slot, each placement serving
// one demand unit. On one channel it is GreedyPhysical, whatever the radio
// count: a node is an endpoint of at most one link of a feasible
// single-channel slot, so the budget cannot bind. The returned schedule
// always satisfies VerifyMulti against the same inputs.
func GreedyPhysicalMulti(eng phys.Engine, channels, numRadios int, links []phys.Link, demands []int, ord Ordering) (*Schedule, error) {
	return new(Builder).GreedyPhysicalMulti(eng, channels, numRadios, links, demands, ord)
}

// GreedyPhysicalMulti is the package-level GreedyPhysicalMulti on b's
// working set.
func (b *Builder) GreedyPhysicalMulti(eng phys.Engine, channels, numRadios int, links []phys.Link, demands []int, ord Ordering) (*Schedule, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("sched: channel count must be positive, got %d", channels)
	}
	if channels == 1 {
		// The slab-allocated single-channel SlotState engine.
		return b.greedy(eng, links, demands, ord, false)
	}
	if err := checkLinks(eng, links, demands); err != nil {
		return nil, err
	}
	used := 0
	for _, ei := range b.orderEdges(eng, links, demands, ord) {
		c := phys.NewCandidate(eng, links[ei])
		remaining := demands[ei]
		for slot := 0; remaining > 0; slot++ {
			if slot == used {
				if slot == len(b.multi) {
					b.multi = append(b.multi, new(phys.MultiSlotState))
				}
				b.multi[slot].Init(eng, channels, numRadios)
				used++
			}
			st := b.multi[slot]
			for ch := 0; ch < channels && remaining > 0; ch++ {
				if st.CanAdd(c, ch) {
					st.Add(c, ch)
					remaining--
				}
			}
		}
	}
	// Materialize; a slot is only ever created by a link that then joins its
	// channel 0 (the slot is empty and the link is singleton-feasible), so
	// none is empty. As in appendSlots, each slot's links and channels are
	// capped slices of one array each.
	recordBuild(b.multi[:used])
	s := NewSchedule()
	if used == 0 {
		return s, nil
	}
	total := 0
	for _, st := range b.multi[:used] {
		total += st.Len()
	}
	flatLinks, flatChans := make([]phys.Link, 0, total), make([]int, 0, total)
	s.slots, s.chans = make([][]phys.Link, 0, used), make([][]int, 0, used)
	for _, st := range b.multi[:used] {
		start := len(flatLinks)
		flatLinks, flatChans = st.AppendPlacements(flatLinks, flatChans)
		end := len(flatLinks)
		s.slots = append(s.slots, flatLinks[start:end:end])
		s.chans = append(s.chans, flatChans[start:end:end])
	}
	return s, nil
}

// checkLinks rejects the inputs no schedule serves, with GreedyPhysical's
// errors: a demand count that differs from the link count, a link that is
// infeasible alone, or a negative demand.
func checkLinks(eng phys.Engine, links []phys.Link, demands []int) error {
	if len(links) != len(demands) {
		return fmt.Errorf("sched: %d links vs %d demands", len(links), len(demands))
	}
	for i, l := range links {
		if !singletonFeasible(eng, phys.NewCandidate(eng, l)) {
			return fmt.Errorf("sched: link %v alone is infeasible; no schedule exists", l)
		}
		if demands[i] < 0 {
			return fmt.Errorf("sched: link %v has negative demand %d", l, demands[i])
		}
	}
	return nil
}

// LocalizedGreedy is GreedyPhysical restricted to k-hop-local information:
// when deciding whether edge e fits a slot, it only accounts for the
// interference of already-scheduled links within the k-hop neighborhood of e
// (Definition 5), exactly the class of algorithms Theorem 1 proves cannot
// always produce feasible schedules. It exists to demonstrate the theorem:
// its output may fail Verify.
func LocalizedGreedy(ch *phys.Channel, comm *graph.Graph, links []phys.Link, demands []int, k int, ord Ordering) (*Schedule, error) {
	if err := checkLinks(ch, links, demands); err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, len(links))
	for i, l := range links {
		edges[i] = graph.Edge{U: l.From, V: l.To}
	}
	// Precompute each link's k-neighborhood as a set of link indices.
	neighborhood := make([]map[int]bool, len(links))
	for i := range links {
		nb := graph.LinkKNeighborhood(comm, edges, i, k)
		set := make(map[int]bool, len(nb))
		for _, j := range nb {
			set[j] = true
		}
		neighborhood[i] = set
	}

	s := NewSchedule()
	// For each slot, remember which link indices it holds.
	var slotLinks [][]int
	for _, ei := range orderEdges(ch, links, demands, ord) {
		remaining := demands[ei]
		for slot := 0; remaining > 0; slot++ {
			if slot == len(slotLinks) {
				slotLinks = append(slotLinks, nil)
			}
			if localFits(ch, links, neighborhood, slotLinks[slot], ei) {
				slotLinks[slot] = append(slotLinks[slot], ei)
				s.AddToSlot(slot, links[ei])
				remaining--
			}
		}
	}
	for s.Length() > 0 && len(s.slots[s.Length()-1]) == 0 {
		s.slots = s.slots[:s.Length()-1]
	}
	return s, nil
}

// localFits checks slot feasibility seen through ei's k-hop keyhole: only
// in-neighborhood occupants are visible, both for ei's own SINR and for the
// occupants' re-check.
func localFits(ch *phys.Channel, links []phys.Link, neighborhood []map[int]bool, occupants []int, ei int) bool {
	visible := make([]phys.Link, 0, len(occupants)+1)
	for _, oi := range occupants {
		if neighborhood[ei][oi] {
			visible = append(visible, links[oi])
		} else if links[ei].SharesEndpoint(links[oi]) {
			// Primary conflicts are always local knowledge.
			return false
		}
	}
	visible = append(visible, links[ei])
	return ch.FeasibleSet(visible)
}
