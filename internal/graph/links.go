package graph

// Edge is an undirected node pair used for link-distance computations.
type Edge struct {
	U, V int
}

// LinkHopDistance returns the hop distance between two links per
// Definition 3: the minimum hop distance between their endpoints in the
// communication graph g (treated as given; pass an undirected graph for the
// paper's setting). It returns -1 if no endpoint pair is connected.
func LinkHopDistance(g *Graph, a, b Edge) int {
	dist := g.MultiSourceBFS([]int{a.U, a.V})
	return nearer(dist[b.U], dist[b.V])
}

// LinkKNeighborhood returns the set of links (indices into links) at hop
// distance at most k from links[i], per Definition 4. The link itself is
// included (distance 0).
func LinkKNeighborhood(g *Graph, links []Edge, i, k int) []int {
	dist := g.MultiSourceBFS([]int{links[i].U, links[i].V})
	var out []int
	for j, b := range links {
		if d := nearer(dist[b.U], dist[b.V]); d >= 0 && d <= k {
			out = append(out, j)
		}
	}
	return out
}

// nearer returns the smaller of two hop distances, where -1 (unreachable)
// is farther than any.
func nearer(a, b int) int {
	if a < 0 || (b >= 0 && b < a) {
		return b
	}
	return a
}
