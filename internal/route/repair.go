package route

// Incremental forest repair for topology dynamics. When nodes fail, recover
// or move, most of the routing forest usually survives: only the orphaned
// subtrees (nodes whose hop distance to the surviving gateways changed, or
// whose neighborhood changed) need new parents. Repair re-attaches exactly
// those nodes at min-hop depth and keeps everything else untouched, so a
// single node failure reroutes a handful of nodes instead of redrawing every
// tree — and the packets queued along untouched branches keep their paths.
//
// Correctness contract: with a nil rng, Repair is *bit-identical* to the
// canonical full rebuild BuildForestPartial(comm, gateways, nil) — same
// parents, depths, gateway assignment and detached set — provided the input
// forest is itself canonical for its own build graph (the property tests
// fuzz exactly this equivalence across failure sequences). With an rng, only
// the dirty nodes draw random tie-breaks; depths and the detached set still
// match the full rebuild, minimizing route churn.
//
// When the event is too disruptive for local patching — the gateway set
// itself changed, the network partitioned (a previously attached node became
// unreachable), or more than half the nodes are dirty — Repair falls back to
// the full rebuild, reported in RepairStats.Rebuilt.

import (
	"fmt"
	"math/rand"

	"scream/internal/graph"
)

// RepairStats reports what a Repair call had to do.
type RepairStats struct {
	// Dirty is the number of nodes whose parent assignment was recomputed
	// (0 when the repair fell back to a full rebuild).
	Dirty int
	// Reparented is the number of nodes whose parent actually changed
	// relative to the input forest.
	Reparented int
	// Detached is the number of detached nodes in the result.
	Detached int
	// Rebuilt reports that the incremental path was abandoned for a full
	// BuildForestPartial (partition, gateway-set change, or a dirty set
	// covering most of the network).
	Rebuilt bool
}

// Repair derives the routing forest for the current topology from f, the
// forest of the previous topology. comm is the current communication graph
// (failed nodes hold no edges), gateways the currently live gateway set,
// alive marks which nodes are up (nil means all), and changed lists every
// node whose incident edge set may differ from the graph f was built on —
// the failed/recovered/moved nodes plus their old and new neighbors. Nodes
// that end up unreachable are detached, not an error; dead nodes are
// expected to be unreachable, but an *alive* node losing all gateways is a
// partition and triggers the rebuild fallback.
//
// The input forest is not mutated; the repaired forest is returned with
// statistics about the work done.
func (f *Forest) Repair(comm *graph.Graph, gateways []int, alive []bool, changed []int, rng *rand.Rand) (*Forest, RepairStats, error) {
	n := comm.NumNodes()
	if len(f.parent) != n {
		return nil, RepairStats{}, fmt.Errorf("route: repairing a %d-node forest with a %d-node graph", len(f.parent), n)
	}
	if alive != nil && len(alive) != n {
		return nil, RepairStats{}, fmt.Errorf("route: %d alive flags for %d nodes", len(alive), n)
	}
	for _, u := range changed {
		if u < 0 || u >= n {
			return nil, RepairStats{}, fmt.Errorf("route: changed node %d out of range", u)
		}
	}
	up := func(u int) bool { return alive == nil || alive[u] }

	// A changed gateway set invalidates every tree root at once; local
	// patching has no advantage. Fall back.
	if !sameGateways(f.gateways, gateways) {
		return rebuildFallback(comm, gateways, rng)
	}

	dist, _ := comm.MultiSourceBFS(gateways)

	// Partition check: a previously attached node that is still up but can
	// no longer reach any gateway means the network split; fall back to the
	// full rebuild.
	for u := 0; u < n; u++ {
		if !f.isGW[u] && f.depth[u] >= 0 && dist[u] < 0 && up(u) {
			return rebuildFallback(comm, gateways, rng)
		}
	}

	// Dirty set: a node needs its parent recomputed when its own adjacency
	// changed, its hop distance changed, or a neighbor's hop distance
	// changed (the neighbor may now be — or no longer be — the canonical
	// min-hop parent choice).
	dirty := make([]bool, n)
	nDirty := 0
	mark := func(u int) {
		if !dirty[u] {
			dirty[u] = true
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
		return rebuildFallback(comm, gateways, rng)
	}

	out := &Forest{
		parent:   append([]int(nil), f.parent...),
		depth:    append([]int(nil), f.depth...),
		isGW:     append([]bool(nil), f.isGW...),
		gateways: append([]int(nil), f.gateways...),
	}
	stats := RepairStats{Dirty: nDirty}
	for u := 0; u < n; u++ {
		if out.isGW[u] {
			out.depth[u] = 0
			out.parent[u] = -1
			continue
		}
		if dist[u] < 0 {
			// Dead, or detached before this event (alive partitions were
			// caught by the fallback check above).
			out.parent[u], out.depth[u] = -1, -1
			stats.Detached++
			continue
		}
		if !dirty[u] {
			out.depth[u] = dist[u] // equal by construction; keep explicit
			continue
		}
		// Re-attach at min-hop depth with the same tie-break rule as the
		// builders: first adjacency-order candidate (canonical) or a uniform
		// draw when an rng is supplied.
		var candidates []int
		for _, v := range comm.Neighbors(u) {
			if dist[v] == dist[u]-1 {
				candidates = append(candidates, v)
			}
		}
		if len(candidates) == 0 {
			return nil, RepairStats{}, fmt.Errorf("route: node %d at depth %d has no parent candidate", u, dist[u])
		}
		pick := candidates[0]
		if rng != nil {
			// Keep the old parent when it is still a valid min-hop choice:
			// fewer reroutes means fewer disturbed queues.
			kept := false
			for _, v := range candidates {
				if v == f.parent[u] {
					pick, kept = v, true
					break
				}
			}
			if !kept {
				pick = candidates[rng.Intn(len(candidates))]
			}
		}
		if pick != f.parent[u] {
			stats.Reparented++
		}
		out.parent[u] = pick
		out.depth[u] = dist[u]
	}
	return out, stats, nil
}

func rebuildFallback(comm *graph.Graph, gateways []int, rng *rand.Rand) (*Forest, RepairStats, error) {
	out, err := BuildForestPartial(comm, gateways, rng)
	if err != nil {
		return nil, RepairStats{}, err
	}
	return out, RepairStats{Rebuilt: true, Detached: out.NumDetached()}, nil
}

func sameGateways(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
