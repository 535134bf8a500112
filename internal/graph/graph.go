// Package graph provides the directed-graph machinery the SCREAM paper's
// definitions rest on: hop distances (for the interference diameter,
// Definition 2), strong connectivity, and link k-neighborhoods
// (Definitions 3-5, used by the Theorem 1 impossibility construction).
package graph

// Graph is a directed graph over nodes 0..n-1 stored as adjacency lists.
type Graph struct {
	adj [][]int
}

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	return &Graph{adj: make([][]int, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// AddEdge inserts the directed edge u -> v. Duplicate edges are ignored.
func (g *Graph) AddEdge(u, v int) {
	for _, w := range g.adj[u] {
		if w == v {
			return
		}
	}
	g.adj[u] = append(g.adj[u], v)
}

// AddUndirected inserts both u -> v and v -> u.
func (g *Graph) AddUndirected(u, v int) {
	g.AddEdge(u, v)
	g.AddEdge(v, u)
}

// Neighbors returns the out-neighbors of u. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total
}

// AvgDegree returns the average out-degree: the neighbor density rho(G) of
// Definition 6 when the graph is the (undirected) communication graph.
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(len(g.adj))
}

// BFS returns the hop distance from src to every node, with -1 for
// unreachable nodes.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, len(g.adj))
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// MultiSourceBFS returns, for every node, the hop distance to the nearest
// source and the index (into srcs) of that source. Ties are broken in favor
// of the source appearing earlier in the BFS expansion, i.e. earlier in
// srcs for equal distances. Unreachable nodes get distance -1, source -1.
func (g *Graph) MultiSourceBFS(srcs []int) (dist, nearest []int) {
	dist = make([]int, len(g.adj))
	nearest = make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
		nearest[i] = -1
	}
	queue := make([]int, 0, len(g.adj))
	for i, s := range srcs {
		if dist[s] == 0 && nearest[s] >= 0 {
			continue // duplicate source
		}
		dist[s] = 0
		nearest[s] = i
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				nearest[v] = nearest[u]
				queue = append(queue, v)
			}
		}
	}
	return dist, nearest
}

// Diameter returns the maximum finite hop distance between any ordered node
// pair — the interference diameter ID(G_S) of Definition 2 when applied to
// the sensitivity graph. If any node cannot reach any other node the graph
// is not strongly connected and Diameter returns -1 (the paper's ID = inf).
func (g *Graph) Diameter() int {
	max := 0
	for u := range g.adj {
		dist := g.BFS(u)
		for v, d := range dist {
			if u == v {
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

// DiameterAmong returns the maximum hop distance between any ordered pair of
// nodes with active[u] true, or -1 when some active node cannot reach some
// other active node. Paths may pass through any node present in the graph —
// callers modelling silenced nodes (failed radios) must remove their edges
// first. This is the interference diameter of a network restricted to its
// live participants, which is what SCREAM's K must cover after churn.
func (g *Graph) DiameterAmong(active []bool) int {
	max := 0
	for u := range g.adj {
		if !active[u] {
			continue
		}
		dist := g.BFS(u)
		for v, d := range dist {
			if u == v || !active[v] {
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

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(len(g.adj))
	for u, nbrs := range g.adj {
		c.adj[u] = append([]int(nil), nbrs...)
	}
	return c
}

// StronglyConnected reports whether every node can reach every other node.
// It uses the standard two-pass (Kosaraju-style) reachability check from
// node 0 in g and in the transpose of g.
func (g *Graph) StronglyConnected() bool {
	n := len(g.adj)
	if n <= 1 {
		return true
	}
	if !allReached(g.BFS(0)) {
		return false
	}
	return allReached(g.Transpose().BFS(0))
}

// Transpose returns the graph with every edge reversed.
func (g *Graph) Transpose() *Graph {
	t := New(len(g.adj))
	for u, nbrs := range g.adj {
		for _, v := range nbrs {
			t.AddEdge(v, u)
		}
	}
	return t
}

func allReached(dist []int) bool {
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}
