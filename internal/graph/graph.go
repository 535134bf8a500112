// Package graph provides the directed-graph machinery the SCREAM paper's
// definitions rest on: hop distances (for the interference diameter,
// Definition 2), strong connectivity, and link k-neighborhoods
// (Definitions 3-5, used by the Theorem 1 impossibility construction).
package graph

import "fmt"

// Graph is a directed graph over nodes 0..n-1, immutable once built by
// FromCSR (the zero Graph is not a graph). Its adjacency rows lie back to
// back in one array, in compressed sparse row form: row u, the
// out-neighbors of node u, is nbr[off[u]:off[u+1]].
type Graph struct {
	off []int // n+1 row offsets into nbr
	nbr []int
}

// FromCSR returns the graph whose node u has the out-neighbors
// nbr[off[u]:off[u+1]], in that order: off has one entry per node plus one,
// starts at 0, never decreases and ends at len(nbr). The graph keeps both
// slices, so the caller must not modify them afterwards. It panics on
// offsets or neighbors that do not describe a graph.
func FromCSR(off, nbr []int) *Graph {
	if len(off) == 0 || off[0] != 0 || off[len(off)-1] != len(nbr) {
		panic(fmt.Sprintf("graph: %d offsets do not span %d neighbors", len(off), len(nbr)))
	}
	n := len(off) - 1
	for u := 0; u < n; u++ {
		if off[u] > off[u+1] {
			panic(fmt.Sprintf("graph: row %d ends before it starts", u))
		}
	}
	for _, v := range nbr {
		if v < 0 || v >= n {
			panic(fmt.Sprintf("graph: neighbor %d out of range for %d nodes", v, n))
		}
	}
	return &Graph{off: off, nbr: nbr}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.off) - 1 }

// Neighbors returns the out-neighbors of u. The returned slice is owned by
// the graph and must not be modified; its capacity ends with the row, so an
// append copies it rather than writing into the next row.
func (g *Graph) Neighbors(u int) []int { return g.nbr[g.off[u]:g.off[u+1]:g.off[u+1]] }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.nbr) }

// AvgDegree returns the average out-degree: the neighbor density rho(G) of
// Definition 6 when the graph is the (undirected) communication graph.
func (g *Graph) AvgDegree() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumNodes())
}

// BFS returns the hop distance from src to every node, with -1 for
// unreachable nodes.
func (g *Graph) BFS(src int) []int {
	return g.MultiSourceBFS([]int{src})
}

// MultiSourceBFS returns, for every node, the hop distance to the nearest
// of srcs, with -1 for nodes no source reaches. A source listed twice is
// searched from once.
func (g *Graph) MultiSourceBFS(srcs []int) []int {
	dist := make([]int, g.NumNodes())
	g.bfs(srcs, dist, make([]int, 0, len(dist)))
	return dist
}

// bfs fills dist with the hop distance from the nearest of srcs to every
// node (-1 when unreachable). queue is the FIFO's storage: every node
// enters it at most once, so with capacity for every node it never grows,
// and callers running many searches pass the same one.
func (g *Graph) bfs(srcs, dist, queue []int) {
	for i := range dist {
		dist[i] = -1
	}
	queue = queue[:0]
	for _, s := range srcs {
		if dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
}

// Diameter returns the maximum finite hop distance between any ordered node
// pair — the interference diameter ID(G_S) of Definition 2 when applied to
// the sensitivity graph. If any node cannot reach any other node the graph
// is not strongly connected and Diameter returns -1 (the paper's ID = inf).
func (g *Graph) Diameter() int {
	return g.DiameterAmong(nil)
}

// DiameterAmong returns the maximum hop distance between any ordered pair of
// nodes with active[u] true, or -1 when some active node cannot reach some
// other active node. A nil active counts every node. Paths may pass through
// any node present in the graph — callers modelling silenced nodes (failed
// radios) must remove their edges first. This is the interference diameter
// of a network restricted to its live participants, which is what SCREAM's
// K must cover after churn. One distance slice and one queue serve every
// source's search.
func (g *Graph) DiameterAmong(active []bool) int {
	n := g.NumNodes()
	dist, queue := make([]int, n), make([]int, 0, n)
	max := 0
	for u := 0; u < n; u++ {
		if active != nil && !active[u] {
			continue
		}
		g.bfs([]int{u}, dist, queue)
		for v, d := range dist {
			if u == v || active != nil && !active[v] {
				continue
			}
			if d < 0 {
				return -1
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// StronglyConnected reports whether every node can reach every other node.
// It uses the standard two-pass (Kosaraju-style) reachability check from
// node 0 in g and in the transpose of g.
func (g *Graph) StronglyConnected() bool {
	if g.NumNodes() <= 1 {
		return true
	}
	if !allReached(g.BFS(0)) {
		return false
	}
	return allReached(g.Transpose().BFS(0))
}

// Transpose returns the graph with every edge reversed. Each of its rows
// lists the sources of the original's edges into that node in ascending
// order.
func (g *Graph) Transpose() *Graph {
	n := g.NumNodes()
	off := make([]int, n+1)
	for _, v := range g.nbr {
		off[v+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// Fill each row at its cursor off[v], which ends the fill at the row's
	// end, the next row's start; shifting the offsets up one restores them.
	nbr := make([]int, len(g.nbr))
	for u := 0; u < n; u++ {
		for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
			nbr[off[v]] = u
			off[v]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return &Graph{off: off, nbr: nbr}
}

func allReached(dist []int) bool {
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}
