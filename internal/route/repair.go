package route

// Incremental forest repair for topology dynamics. When nodes fail, recover
// or move, most of the routing forest usually survives: only the orphaned
// subtrees (nodes whose hop distance to the surviving gateways changed, or
// whose neighborhood changed) need new parents. Repair re-attaches exactly
// those nodes at min-hop depth and keeps everything else untouched, so a
// single node failure reroutes a handful of nodes instead of redrawing every
// tree — and the packets queued along untouched branches keep their paths.
//
// Correctness contract: Repair is *bit-identical* to the canonical full
// rebuild BuildForestPartial(comm, gateways, nil) — same parents, depths,
// gateway assignment and detached set — provided the input forest is itself
// canonical for its own build graph (the property tests fuzz exactly this
// equivalence across failure sequences). From a forest with random
// tie-breaks, the nodes Repair leaves clean keep their parents, so depths
// and the detached set still match the rebuild.
//
// When the event is too disruptive for local patching — the gateway set
// itself changed, the network partitioned (a previously attached node became
// unreachable), or more than half the nodes are dirty — every node chooses
// its parent again on the same distances, and Repair reports the forest as
// rebuilt.

import (
	"fmt"
	"slices"

	"scream/internal/graph"
)

// Repair derives the routing forest for the current topology from f, the
// forest of the previous topology. comm is the current communication graph
// (failed nodes hold no edges), gateways the currently live gateway set,
// alive marks which nodes are up (nil means all), and changed lists every
// node whose incident edge set may differ from the graph f was built on —
// the failed/recovered/moved nodes plus their old and new neighbors. Nodes
// that end up unreachable are detached, not an error; dead nodes are
// expected to be unreachable, but an *alive* node losing all gateways is a
// partition and makes every node choose again.
//
// The input forest is not mutated; the repaired forest is returned with
// whether every node chose its parent again (rebuilt).
func (f *Forest) Repair(comm *graph.Graph, gateways []int, alive []bool, changed []int) (out *Forest, rebuilt bool, err error) {
	n := comm.NumNodes()
	if len(f.parent) != n {
		return nil, false, fmt.Errorf("route: repairing a %d-node forest with a %d-node graph", len(f.parent), n)
	}
	if alive != nil && len(alive) != n {
		return nil, false, fmt.Errorf("route: %d alive flags for %d nodes", len(alive), n)
	}
	for _, u := range changed {
		if u < 0 || u >= n {
			return nil, false, fmt.Errorf("route: changed node %d out of range", u)
		}
	}
	return build(comm, gateways, nil, true, f, alive, changed)
}

// dirty marks the nodes whose parent a repair of f must pick again on the
// current distances dist: a node whose own adjacency changed, whose hop
// distance changed, or a neighbor of a node whose distance changed (the
// neighbor may now be — or no longer be — the canonical min-hop parent
// choice). It returns nil, every node dirty, when the gateway set changed
// (every tree root moves at once), when a node that was attached and is
// still up reaches no gateway (the network partitioned), or when more than
// half the nodes are dirty.
func (f *Forest) dirty(comm *graph.Graph, gateways, dist []int, alive []bool, changed []int) []bool {
	if !slices.Equal(f.gateways, gateways) {
		return nil
	}
	n := len(dist)
	for u := 0; u < n; u++ {
		if !f.isGW[u] && f.depth[u] >= 0 && dist[u] < 0 && (alive == nil || alive[u]) {
			return nil
		}
	}
	marked := make([]bool, n)
	nDirty := 0
	mark := func(u int) {
		if !marked[u] {
			marked[u] = true
			nDirty++
		}
	}
	for _, u := range changed {
		mark(u)
	}
	for u := 0; u < n; u++ {
		if dist[u] != f.depth[u] {
			mark(u)
			for _, v := range comm.Neighbors(u) {
				mark(v)
			}
		}
	}
	if nDirty > n/2 {
		return nil
	}
	return marked
}
