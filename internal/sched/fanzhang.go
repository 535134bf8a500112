package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"scream/internal/phys"
)

// The Fan-Zhang-style approximation scheduler: partition links into
// geometric length classes and schedule each class separately with first-fit
// admission under the incremental SlotState engine. Length-class partitioning
// is the core device of the physical-interference approximation algorithms
// (Fan-Zhang, arXiv:0910.5215; also Goussevskaia et al.): within one class
// all links have nearly equal length, which is what makes a first-fit packing
// argument go through and yields the logarithmic approximation guarantee —
// the number of classes is O(log(l_max/l_min)). The price of the guarantee is
// that classes never share slots, so on easy instances the concatenated
// schedule can trail the unpartitioned greedy; the gap harness quantifies
// exactly that trade.

// lengthClasses returns the geometric length class of every link, in
// classes, which has one entry per link. Link length is read off the
// channel's direct gain (longer link <=> smaller gain; the same proxy
// ByLengthDesc uses): class k holds links whose gain is within
// [2^-(k+1), 2^-k) of the strongest scheduled link's. Class 0 is the
// shortest class; higher classes are longer, more interference-fragile
// links.
func lengthClasses(ch phys.Engine, links []phys.Link, classes []int) []int {
	gmax := math.Inf(-1)
	for _, l := range links {
		if g := ch.Gain(l.From, l.To); g > gmax {
			gmax = g
		}
	}
	for i, l := range links {
		classes[i] = 0
		g := ch.Gain(l.From, l.To)
		if !(g > 0) || !(gmax > 0) {
			// A zero-gain link can never carry data; leave it in class 0 and
			// let the admission pass report it as singleton-infeasible.
			continue
		}
		classes[i] = int(math.Floor(math.Log2(gmax / g)))
	}
	return classes
}

// ApproxFanZhang computes a feasible schedule by length-class partitioning:
// links are split by lengthClasses, classes are scheduled longest-first
// (highest class first — the fragile links claim interference-free slots
// before short links fill the spatial budget), each class runs the first-fit
// greedy engine on fresh slots, and the per-class schedules concatenate.
// Within a class, links go in ascending link-index order — the stable tie
// rule the determinism suite pins. The returned schedule always satisfies
// Verify against the same inputs.
func (b *Builder) ApproxFanZhang(ch phys.Engine, links []phys.Link, demands []int) (*Schedule, error) {
	if len(links) != len(demands) {
		return nil, fmt.Errorf("sched: %d links vs %d demands", len(links), len(demands))
	}
	classes := lengthClasses(ch, links, resized(&b.classes, len(links)))
	// Highest class first; a stable sort keeps each class in ascending
	// link index.
	order := resized(&b.order, len(links))
	identity(order)
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(classes[j], classes[i]) })

	// Each class runs on fresh slots: the ones after the previous class's.
	p := pass{eng: ch, channels: 1}
	slots := 0
	for start := 0; start < len(order); {
		end := start + 1
		for end < len(order) && classes[order[end]] == classes[order[start]] {
			end++
		}
		var err error
		if slots, err = b.admit(p, links, demands, order[start:end], slots); err != nil {
			return nil, err
		}
		start = end
	}
	return b.schedule(links, 1, slots), nil
}
