package route

import (
	"math/rand"
	"slices"
	"testing"

	"scream/internal/graph"
)

func TestBalancedForestKeepsMinHopDepths(t *testing.T) {
	g := gridGraph(6, 6)
	rng := rand.New(rand.NewSource(3))
	demand := make([]int, 36)
	for i := range demand {
		demand[i] = 1 + rng.Intn(9)
	}
	f, err := BuildForestBalanced(g, []int{0, 35}, demand, rng)
	if err != nil {
		t.Fatal(err)
	}
	dist, _ := g.MultiSourceBFS([]int{0, 35})
	for u := 0; u < 36; u++ {
		if f.IsGateway(u) {
			continue
		}
		if f.Depth(u) != dist[u] {
			t.Errorf("node %d depth %d, want min-hop %d", u, f.Depth(u), dist[u])
		}
		p := f.parent[u]
		if !slices.Contains(g.Neighbors(u), p) || dist[p] != dist[u]-1 {
			t.Errorf("node %d has invalid parent %d", u, p)
		}
	}
}

func TestBalancedForestImprovesGatewayBalance(t *testing.T) {
	// Averaged over seeds, balanced construction should not have a worse
	// max-gateway-load than plain random tie-breaking.
	g := gridGraph(6, 6)
	plainTotal, balTotal := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		rng1 := rand.New(rand.NewSource(seed))
		rng2 := rand.New(rand.NewSource(seed))
		demand := make([]int, 36)
		for i := range demand {
			demand[i] = 1 + rng1.Intn(9)
		}
		plain, err := BuildForest(g, []int{0, 5, 30, 35}, rng1)
		if err != nil {
			t.Fatal(err)
		}
		bal, err := BuildForestBalanced(g, []int{0, 5, 30, 35}, demand, rng2)
		if err != nil {
			t.Fatal(err)
		}
		aggP, err := plain.AggregateDemand(demand)
		if err != nil {
			t.Fatal(err)
		}
		aggB, err := bal.AggregateDemand(demand)
		if err != nil {
			t.Fatal(err)
		}
		plainTotal += maxGatewayLoad(plain, aggP)
		balTotal += maxGatewayLoad(bal, aggB)
	}
	if balTotal > plainTotal {
		t.Errorf("balanced forests should not increase max gateway load: %d vs %d", balTotal, plainTotal)
	}
	t.Logf("max-gateway-load totals over 10 seeds: plain %d, balanced %d", plainTotal, balTotal)
}

// maxGatewayLoad returns the largest total demand entering any single
// gateway: the balance metric BuildForestBalanced minimizes greedily.
func maxGatewayLoad(f *Forest, agg []int) int {
	children := f.Children()
	max := 0
	for _, g := range f.Gateways() {
		total := 0
		for _, c := range children[g] {
			total += agg[c]
		}
		if total > max {
			max = total
		}
	}
	return max
}

func TestBalancedForestFlowConservation(t *testing.T) {
	g := gridGraph(5, 5)
	rng := rand.New(rand.NewSource(7))
	demand := make([]int, 25)
	total := 0
	for i := range demand {
		demand[i] = 1 + rng.Intn(5)
	}
	f, err := BuildForestBalanced(g, []int{12}, demand, rng)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := f.AggregateDemand(demand)
	if err != nil {
		t.Fatal(err)
	}
	in := 0
	for _, c := range f.Children()[12] {
		in += agg[c]
	}
	for u := 0; u < 25; u++ {
		if u != 12 {
			total += demand[u]
		}
	}
	if in != total {
		t.Errorf("gateway receives %d, nodes generate %d", in, total)
	}
}

func TestBalancedForestNilDemand(t *testing.T) {
	g := gridGraph(3, 3)
	f, err := BuildForestBalanced(g, []int{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumNodes() != 9 {
		t.Error("forest malformed with nil demand")
	}
}

func TestBalancedForestErrors(t *testing.T) {
	disc := graph.New(3)
	disc.AddUndirected(0, 1)
	if _, err := BuildForestBalanced(disc, []int{0}, nil, nil); err == nil {
		t.Error("unreachable node should fail")
	}
	g := gridGraph(2, 2)
	if _, err := BuildForestBalanced(g, nil, nil, nil); err == nil {
		t.Error("no gateways should fail")
	}
}
