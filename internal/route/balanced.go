package route

import (
	"math/rand"

	"scream/internal/graph"
)

// BuildForestBalanced is BuildForest with a load-aware tie-break: among the
// min-hop parent candidates, a node picks the one whose subtree currently
// carries the least aggregated demand (ties broken randomly/by ID). Hop
// distances — and therefore the paper's minimum-hop routing policy — are
// unchanged; only the tie-breaks differ. Balancing the trees evens the
// per-gateway load, which the complexity analysis of Section IV-D rewards:
// with balanced trees the aggregated traffic per level is O(n), shrinking
// TD and with it every protocol's round count.
//
// Nodes are attached in BFS order (closest to the gateways first) so
// subtree loads are known when deeper nodes choose parents.
func BuildForestBalanced(comm *graph.Graph, gateways []int, nodeDemand []int, rng *rand.Rand) (*Forest, error) {
	n := comm.NumNodes()
	if len(nodeDemand) != n {
		nodeDemand = make([]int, n) // treat missing demands as uniform zero
	}
	// An arbitrary min-hop forest validates the inputs and fixes every
	// node's depth, its hop distance to the gateways; its parents are
	// rewritten level by level below.
	f, err := BuildForest(comm, gateways, rng)
	if err != nil {
		return nil, err
	}

	// Counting sort by depth: parents attach before children.
	maxD := 0
	for _, d := range f.depth {
		maxD = max(maxD, d)
	}
	buckets := make([][]int, maxD+1)
	for u, d := range f.depth {
		if d > 0 {
			buckets[d] = append(buckets[d], u)
		}
	}
	// load[u]: demand currently routed through u (its own plus attached
	// descendants'). Updated as nodes attach, walking up to the root.
	load := make([]int, n)
	for d := 1; d <= maxD; d++ {
		level := buckets[d]
		if rng != nil {
			rng.Shuffle(len(level), func(i, j int) { level[i], level[j] = level[j], level[i] })
		}
		for _, u := range level {
			best, bestLoad := -1, 0
			for _, v := range comm.Neighbors(u) {
				if f.depth[v] != d-1 {
					continue
				}
				if best < 0 || load[v] < bestLoad || (load[v] == bestLoad && v < best) {
					best, bestLoad = v, load[v]
				}
			}
			f.parent[u] = best
			// Propagate u's demand up the chosen chain, whose nodes are
			// all shallower and so already rewritten.
			for w := u; w >= 0; w = f.parent[w] {
				load[w] += nodeDemand[u]
			}
		}
	}
	return f, nil
}
