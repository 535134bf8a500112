// Package route builds the gateway-rooted routing forest of the paper
// (Section II): every non-gateway node joins the tree of its minimum-hop
// gateway (ties broken randomly), traffic flows along reverse trees toward
// the gateways, and the demand on a node's upstream edge is the aggregated
// demand of its subtree.
package route

import (
	"fmt"
	"math/rand"

	"scream/internal/graph"
	"scream/internal/phys"
)

// Forest is a gateway-rooted routing forest over nodes 0..n-1.
//
// A node may be *detached*: not a gateway and not attached to any tree
// (parent and depth both -1). Detached nodes appear when a forest is
// built or repaired over a partitioned network — their traffic is stranded
// until the topology reconnects. BuildForest never detaches (it errors
// instead); BuildForestPartial and Repair do.
type Forest struct {
	parent   []int  // -1 for gateways and detached nodes
	depth    []int  // 0 for gateways, -1 for detached nodes
	isGW     []bool // explicit gateway marks (parent == -1 is ambiguous)
	gateways []int
}

// BuildForest constructs the routing forest on the communication graph comm
// (symmetric). Every node picks a parent among its neighbors one hop closer
// to the nearest gateway; ties are broken uniformly at random when rng is
// non-nil and toward the lowest node ID otherwise. An error is returned when
// some node cannot reach any gateway.
func BuildForest(comm *graph.Graph, gateways []int, rng *rand.Rand) (*Forest, error) {
	return buildForest(comm, gateways, rng, false)
}

// BuildForestPartial is BuildForest for networks that may be partitioned:
// nodes that cannot reach any gateway (including the degenerate case of an
// empty gateway list) are left detached instead of failing the build. It is
// the full-rebuild reference the incremental Repair is checked against.
func BuildForestPartial(comm *graph.Graph, gateways []int, rng *rand.Rand) (*Forest, error) {
	return buildForest(comm, gateways, rng, true)
}

func buildForest(comm *graph.Graph, gateways []int, rng *rand.Rand, partial bool) (*Forest, error) {
	n := comm.NumNodes()
	if len(gateways) == 0 && !partial {
		return nil, fmt.Errorf("route: need at least one gateway")
	}
	isGW := make([]bool, n)
	for _, g := range gateways {
		if g < 0 || g >= n {
			return nil, fmt.Errorf("route: gateway %d out of range", g)
		}
		if isGW[g] {
			return nil, fmt.Errorf("route: duplicate gateway %d", g)
		}
		isGW[g] = true
	}

	dist, _ := comm.MultiSourceBFS(gateways)
	f := &Forest{
		parent:   make([]int, n),
		depth:    make([]int, n),
		isGW:     isGW,
		gateways: append([]int(nil), gateways...),
	}
	for u := 0; u < n; u++ {
		f.parent[u] = -1
		f.depth[u] = -1
	}
	for _, g := range gateways {
		f.depth[g] = 0
	}
	for u := 0; u < n; u++ {
		if isGW[u] {
			continue
		}
		if dist[u] < 0 {
			if partial {
				continue // detached: unreachable under the current topology
			}
			return nil, fmt.Errorf("route: node %d cannot reach any gateway", u)
		}
		var candidates []int
		for _, v := range comm.Neighbors(u) {
			if dist[v] == dist[u]-1 {
				candidates = append(candidates, v)
			}
		}
		if len(candidates) == 0 {
			return nil, fmt.Errorf("route: node %d has no parent candidate", u)
		}
		pick := candidates[0]
		if rng != nil {
			pick = candidates[rng.Intn(len(candidates))]
		}
		f.parent[u] = pick
		f.depth[u] = dist[u]
	}
	return f, nil
}

// NumNodes returns the number of nodes in the forest.
func (f *Forest) NumNodes() int { return len(f.parent) }

// Depth returns u's hop distance to its gateway, or -1 when u is detached.
func (f *Forest) Depth(u int) int { return f.depth[u] }

// Gateways returns the gateway node IDs.
func (f *Forest) Gateways() []int { return append([]int(nil), f.gateways...) }

// IsGateway reports whether u is a gateway.
func (f *Forest) IsGateway(u int) bool {
	if f.isGW != nil {
		return f.isGW[u]
	}
	return f.parent[u] == -1
}

// NumDetached returns the number of detached nodes.
func (f *Forest) NumDetached() int {
	n := 0
	for _, d := range f.depth {
		if d < 0 {
			n++
		}
	}
	return n
}

// EdgeOf returns the upstream edge owned by node u (data flows from u to its
// parent). ok is false for gateways, which own no edge — the one-to-one
// node/edge mapping of Section II.
func (f *Forest) EdgeOf(u int) (l phys.Link, ok bool) {
	p := f.parent[u]
	if p < 0 {
		return phys.Link{}, false
	}
	return phys.Link{From: u, To: p}, true
}

// Links returns every forest edge as a directed link, ordered by owner node
// ID. Entry i corresponds to the i-th *attached* non-gateway node in ID
// order: detached nodes own no edge and are skipped.
func (f *Forest) Links() []phys.Link {
	links := make([]phys.Link, 0, len(f.parent)-len(f.gateways))
	for u := range f.parent {
		if l, ok := f.EdgeOf(u); ok {
			links = append(links, l)
		}
	}
	return links
}

// Children returns the children lists of every node.
func (f *Forest) Children() [][]int {
	ch := make([][]int, len(f.parent))
	for u, p := range f.parent {
		if p >= 0 {
			ch[p] = append(ch[p], u)
		}
	}
	return ch
}

// AggregateDemand returns, for each node u, the demand on u's upstream edge:
// the sum of nodeDemand over the subtree rooted at u. Gateways aggregate to
// zero (they own no edge; their generated demand, if any, needs no wireless
// hop). nodeDemand must have one entry per node.
func (f *Forest) AggregateDemand(nodeDemand []int) ([]int, error) {
	n := len(f.parent)
	if len(nodeDemand) != n {
		return nil, fmt.Errorf("route: %d demands for %d nodes", len(nodeDemand), n)
	}
	agg := make([]int, n)
	// Process nodes in decreasing depth so children are done before parents.
	// Counting sort by depth (depths are small); detached nodes own no edge
	// and aggregate nothing.
	maxDepth := 0
	for _, d := range f.depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	buckets := make([][]int, maxDepth+1)
	for u := 0; u < n; u++ {
		if f.depth[u] < 0 {
			continue
		}
		buckets[f.depth[u]] = append(buckets[f.depth[u]], u)
	}
	for d := maxDepth; d >= 1; d-- {
		for _, u := range buckets[d] {
			if nodeDemand[u] < 0 {
				return nil, fmt.Errorf("route: node %d has negative demand %d", u, nodeDemand[u])
			}
			agg[u] += nodeDemand[u]
			p := f.parent[u]
			if p >= 0 {
				agg[p] += agg[u]
			}
		}
	}
	// Gateways own no edge.
	for _, g := range f.gateways {
		agg[g] = 0
	}
	return agg, nil
}

// LinkDemands returns the demand each of links carries when every node u
// generates nodeDemand[u]: entry i is the aggregated demand (AggregateDemand)
// of links[i]'s owner, the node it leaves.
func (f *Forest) LinkDemands(links []phys.Link, nodeDemand []int) ([]int, error) {
	agg, err := f.AggregateDemand(nodeDemand)
	if err != nil {
		return nil, err
	}
	demands := make([]int, len(links))
	for i, l := range links {
		demands[i] = agg[l.From]
	}
	return demands, nil
}
