package sched

import (
	"cmp"
	"fmt"
	"slices"

	"scream/internal/obs"
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
// The one-shot functions (GreedyPhysical, GreedyPhysicalDataOnly,
// GreedyPhysicalMulti) run on a fresh Builder. The zero Builder
// is ready to use; a Builder is not safe for concurrent use, and the
// schedules it returns share no memory with it.
type Builder struct {
	// Metrics (nil: the process default) receives each build's counts.
	Metrics *obs.Registry
	handles builderObs // the handles in the registry last published into
	// Slot states live in fixed-size slabs: a build touches tens to hundreds
	// of slots, and one heap allocation per slot (or copying the states
	// around as a flat slice grows) would dominate the incremental
	// feasibility checks themselves. Slabs never move, which SlotState's
	// inline small-slot storage requires. Over C channels, channel c of
	// slot i is state i·C + c.
	slabs []*[slabSize]phys.SlotState
	// radios, over more than one channel, holds one row of n radio counts
	// per slot: radios[i·n + u] is the placements of slot i at node u.
	radios []int32
	placed []placement // over more than one channel, the build's admissions in order

	order   []int     // admission order: indices into links
	counts  []int     // head-ID counting sort: links per head, then positions
	weights []float64 // max-weight keys
	classes []int     // Fan-Zhang length classes
}

// placement is one admission of a build: links[link] on channel ch of slot
// slot.
type placement struct{ link, slot, ch int32 }

// pass is what one build admits over: the engine, C >= 1 orthogonal
// channels of it with a per-node radio budget (only more than one channel
// can bind it), and whether the ACK inequality is checked.
type pass struct {
	eng      phys.Engine
	channels int
	radios   int32
	dataOnly bool
}

const slabSize = 64

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
	return new(Builder).greedy(pass{eng: ch, channels: 1}, links, demands, ord)
}

// GreedyPhysicalDataOnly is GreedyPhysical with the ACK sub-slot inequality
// disabled (ablation: the original Gupta-Kumar physical model without the
// paper's link-layer-reliability extension). Its schedules may fail Verify
// under the full model; CountInfeasibleSlots quantifies by how much.
func GreedyPhysicalDataOnly(ch phys.Engine, links []phys.Link, demands []int, ord Ordering) (*Schedule, error) {
	return new(Builder).greedy(pass{eng: ch, channels: 1, dataOnly: true}, links, demands, ord)
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
	return b.greedy(pass{eng: eng, channels: channels, radios: int32(max(numRadios, 1))}, links, demands, ord)
}

func (b *Builder) greedy(p pass, links []phys.Link, demands []int, ord Ordering) (*Schedule, error) {
	if len(links) != len(demands) {
		return nil, fmt.Errorf("sched: %d links vs %d demands", len(links), len(demands))
	}
	return b.ordered(p, links, demands, b.orderEdges(p.eng, links, demands, ord))
}

// ordered runs the admission pass over order and materializes its slots
// as a new schedule.
func (b *Builder) ordered(p pass, links []phys.Link, demands []int, order []int) (*Schedule, error) {
	b.placed = b.placed[:0]
	k, err := b.admit(p, links, demands, order, 0)
	if err != nil {
		return nil, err
	}
	return b.schedule(links, p.channels, k), nil
}

// singletonFeasible reports whether c alone can occupy a slot: both the
// data and the ACK transmission must clear beta against noise with no
// interference. This is exactly Channel.FeasibleSet on a one-link set
// (self-loops fail through their zero self-gain), phrased over the Engine
// interface so any engine can answer it — and since a candidate's powers
// come from the exact Gain on every engine, all engines agree on it.
func singletonFeasible(ch phys.Engine, c phys.Candidate) bool {
	floor := ch.Beta() * ch.NoiseMW()
	return c.DataMW >= floor && c.AckMW >= floor
}

// admit runs the first-fit greedy admission pass over the links named by
// order (indices into links/demands), in that order, on fresh slots from
// slot first on, and returns the end of the slots it filled: they are
// [first, end). Each link takes the first demands[i] (slot, channel) pairs
// where it fits, slots in order and each slot's channels in ascending
// order. Over more than one channel a pair is probed only while both
// endpoints have a free radio in the slot, and each admission is logged in
// b.placed, which ordered empties. Links absent from order are ignored —
// the Fan-Zhang class scheduler exploits this to run the pass on one length
// class at a time, each class on the slots after the last class's.
func (b *Builder) admit(p pass, links []phys.Link, demands []int, order []int, first int) (int, error) {
	n, C := p.eng.NumNodes(), p.channels
	used := first
	var probes int64 // CanAdd calls, published with the build
	for _, ei := range order {
		// The link's exact signals, computed once per build: they decide its
		// singleton feasibility here and every admission probe below. Links
		// are checked in order, so invalid input fails on its first bad link.
		c := phys.NewCandidate(p.eng, links[ei])
		if !singletonFeasible(p.eng, c) {
			return 0, fmt.Errorf("sched: link %v alone is infeasible; no schedule exists", c.Link)
		}
		remaining := demands[ei]
		if remaining < 0 {
			return 0, fmt.Errorf("sched: link %v has negative demand %d", c.Link, remaining)
		}
		for slot := first; remaining > 0; slot++ {
			if slot == used {
				// A new slot of this build: its channels take the working
				// set's next states, re-initialised or in a new slab.
				for j := slot * C; j < (slot+1)*C; j++ {
					if j/slabSize == len(b.slabs) {
						b.slabs = append(b.slabs, new([slabSize]phys.SlotState))
					}
					b.state(j).Init(p.eng, p.dataOnly)
				}
				if C > 1 {
					if cap(b.radios) < (slot+1)*n {
						b.radios = slices.Grow(b.radios[:slot*n], slabSize*n)
					}
					b.radios = b.radios[:(slot+1)*n]
					clear(b.radios[slot*n:])
				}
				used++
			}
			if C == 1 {
				// The slot's one state decides: the radio budget cannot bind
				// and the state keeps the admission order. A single walk
				// over all (slot, channel) states with the radio check and
				// the log inline measured 1.16× this probe's time on the
				// probe-bound BenchmarkGreedyPhysical64 (2-vCPU VM).
				probes++
				if st := b.state(slot); st.CanAdd(c) {
					st.Add(c)
					remaining--
				}
				continue
			}
			radios := b.radios[slot*n : (slot+1)*n]
			for ch := 0; ch < C && remaining > 0 && radios[c.From] < p.radios && radios[c.To] < p.radios; ch++ {
				probes++
				if st := b.state(slot*C + ch); st.CanAdd(c) {
					st.Add(c)
					radios[c.From]++
					radios[c.To]++
					b.placed = append(b.placed, placement{int32(ei), int32(slot), int32(ch)})
					remaining--
				}
			}
		}
	}
	b.recordBuild(C, first, used, probes)
	return used, nil
}

// state returns state j of the working set.
func (b *Builder) state(j int) *phys.SlotState { return &b.slabs[uint(j)/slabSize][uint(j)%slabSize] }

// fill returns the placements in slot i of a build over channels channels.
func (b *Builder) fill(channels, i int) int {
	n := 0
	for j := i * channels; j < (i+1)*channels; j++ {
		n += b.state(j).Len()
	}
	return n
}

// schedule materializes the first k slots of the last build as a new
// schedule. Each slot lists its placements in admission order: on one
// channel its state holds them so, and over more channels a stable counting
// sort of the admission log by slot gives the order across its channels.
// The links, and over more than one channel their channels, are copied into
// one new array each; each slot's slice is capped at its own end, so
// appending to one slot can never write into the next. A slot is only ever
// created by a link that then joins it (the slot is empty and the link
// singleton-feasible), so none is empty.
func (b *Builder) schedule(links []phys.Link, channels, k int) *Schedule {
	s := &Schedule{}
	if k == 0 {
		return s
	}
	next := resized(&b.counts, k) // each slot's start, then, over several channels, its end
	total := 0
	for i := range next {
		next[i], total = total, total+b.fill(channels, i)
	}
	flat := make([]phys.Link, 0, total)
	s.slots = make([][]phys.Link, k)
	if channels == 1 {
		for i := range s.slots {
			flat = b.state(i).AppendLinks(flat)
			s.slots[i] = flat[next[i]:len(flat):len(flat)]
		}
		return s
	}
	flat, flatChans := flat[:total], make([]int, total)
	s.chans = make([][]int, k)
	for _, p := range b.placed {
		i := next[p.slot]
		next[p.slot]++
		flat[i], flatChans[i] = links[p.link], int(p.ch)
	}
	start := 0
	for i, end := range next {
		s.slots[i], s.chans[i] = flat[start:end:end], flatChans[start:end:end]
		start = end
	}
	return s
}
