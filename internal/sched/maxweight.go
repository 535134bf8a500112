package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"scream/internal/phys"
)

// The max-weight backlog×rate scheduler: greedy admission ordered by the
// product of a link's queued demand (its backlog snapshot) and its rate
// proxy, instead of a static link order. This is the classical max-weight
// discipline of heavy-traffic scheduling on interfering routes
// (arXiv:1106.1590): serving the heaviest backlog×rate links first keeps the
// queue vector balanced under skewed load, where a static order keeps
// draining the same early links while hotspot queues grow.

// LinkRate returns the rate proxy of a link used by the max-weight ordering:
// the Shannon spectral efficiency log2(1 + SNR) of the link in isolation.
// The flow layer's slots carry one packet regardless of SNR, so the proxy
// acts purely as a quality prior — at equal backlog, links with more SINR
// headroom (which pack better into slots) are served first. SNR comes off
// the sender's power times the engine's exact gain, the link's candidate
// DataMW, so every engine agrees on it.
func LinkRate(ch phys.Engine, l phys.Link) float64 {
	return math.Log2(1 + float64(ch.TxPowerMW(l.From)*ch.Gain(l.From, l.To))/ch.NoiseMW())
}

// maxWeightOrder returns the indices of links in decreasing
// demand×LinkRate weight, in b's order buffer. Equal weights break by
// ascending link index — a stable, topology-independent tie rule, so
// schedules are byte-identical across runs and worker counts (the
// determinism discipline of the experiment engine; see
// TestMaxWeightOrderTieBreak). Weight then index is a total order, so any
// sort gives the one order it defines.
func (b *Builder) maxWeightOrder(ch phys.Engine, links []phys.Link, demands []int) []int {
	w := resized(&b.weights, len(links))
	for i, l := range links {
		w[i] = float64(demands[i]) * LinkRate(ch, l)
	}
	idx := resized(&b.order, len(links))
	identity(idx)
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(w[b], w[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return idx
}

// GreedyMaxWeight computes a feasible schedule with the same first-fit
// admission engine as GreedyPhysical, but ordered by maxWeightOrder: the
// heaviest backlog×rate links claim the early slots. The returned schedule
// always satisfies Verify against the same inputs.
func (b *Builder) GreedyMaxWeight(ch phys.Engine, links []phys.Link, demands []int) (*Schedule, error) {
	if len(links) != len(demands) {
		return nil, fmt.Errorf("sched: %d links vs %d demands", len(links), len(demands))
	}
	return b.ordered(pass{eng: ch, channels: 1}, links, demands, b.maxWeightOrder(ch, links, demands))
}
