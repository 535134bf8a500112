package route

// Property tests for incremental forest repair: across fuzzed fail/recover
// sequences, Repair must produce bit-identical forests to the canonical
// full rebuild (BuildForestPartial with nil rng), it must equal the
// reference repair below from random-tie-break forests, and the partition /
// gateway-change fallbacks must engage exactly when they should.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"scream/internal/graph"
)

// latticeGraph builds the rows x cols 4-neighbor lattice. Adjacency lists
// come out in ascending node order — the canonical order the builders'
// tie-breaking assumes.
func latticeGraph(rows, cols int) *graph.Graph {
	g := make(arcs, rows*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r+1 < rows {
				g.undirected(id(r, c), id(r+1, c))
			}
			if c+1 < cols {
				g.undirected(id(r, c), id(r, c+1))
			}
		}
	}
	return sortedClone(g.graph())
}

// sortedClone rebuilds g with every adjacency list in ascending order,
// matching topo's edge-construction order.
func sortedClone(g *graph.Graph) *graph.Graph {
	n := g.NumNodes()
	out := make(arcs, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && slices.Contains(g.Neighbors(u), v) {
				out.add(u, v)
			}
		}
	}
	return out.graph()
}

// induced returns the subgraph of g restricted to alive nodes, preserving
// ascending adjacency order. Dead nodes stay present but isolated, exactly
// like a silenced radio in the rebuilt topo graphs.
func induced(g *graph.Graph, alive []bool) *graph.Graph {
	n := g.NumNodes()
	out := make(arcs, n)
	for u := 0; u < n; u++ {
		if !alive[u] {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if alive[v] {
				out.add(u, v)
			}
		}
	}
	return out.graph()
}

func assertForestsEqual(t *testing.T, got, want *Forest, what string) {
	t.Helper()
	for u := 0; u < want.NumNodes(); u++ {
		if got.parent[u] != want.parent[u] {
			t.Fatalf("%s: parent of %d: %d vs rebuild %d", what, u, got.parent[u], want.parent[u])
		}
		if got.Depth(u) != want.Depth(u) {
			t.Fatalf("%s: depth of %d: %d vs rebuild %d", what, u, got.Depth(u), want.Depth(u))
		}
		if gatewayOf(got, u) != gatewayOf(want, u) {
			t.Fatalf("%s: gateway of %d: %d vs rebuild %d", what, u, gatewayOf(got, u), gatewayOf(want, u))
		}
		if got.IsGateway(u) != want.IsGateway(u) {
			t.Fatalf("%s: gateway mark of %d differs", what, u)
		}
	}
}

// aliveGateways filters the configured gateway set to currently-alive nodes.
func aliveGateways(gws []int, alive []bool) []int {
	var out []int
	for _, g := range gws {
		if alive[g] {
			out = append(out, g)
		}
	}
	return out
}

// changedSet returns the toggled node plus its full-graph neighborhood —
// every node whose incident edge set may differ after the toggle.
func changedSet(full *graph.Graph, u int) []int {
	out := []int{u}
	out = append(out, full.Neighbors(u)...)
	return out
}

// chordedLattice returns the rows x cols lattice plus up to chords random
// undirected chords, which create tie-break-rich neighborhoods and
// multi-path repairs.
func chordedLattice(rows, cols, chords int, rng *rand.Rand) arcs {
	full := latticeGraph(rows, cols)
	n := rows * cols
	a := make(arcs, n)
	for u := 0; u < n; u++ {
		for _, v := range full.Neighbors(u) {
			a.add(u, v)
		}
	}
	for i := 0; i < chords; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			a.undirected(u, v)
		}
	}
	return a
}

// referenceRepair is Repair as it stood before it shared the builders'
// parent pass: it takes its own BFS, copies the forest and re-attaches the
// dirty nodes to their first min-hop neighbor, and on a gateway change, a
// partition or a dirty majority it returns BuildForestPartial's forest.
func referenceRepair(f *Forest, comm *graph.Graph, gateways []int, alive []bool, changed []int) (*Forest, bool, error) {
	n := comm.NumNodes()
	up := func(u int) bool { return alive == nil || alive[u] }
	rebuild := func() (*Forest, bool, error) {
		out, err := BuildForestPartial(comm, gateways, nil)
		return out, true, err
	}
	if !slices.Equal(f.gateways, gateways) {
		return rebuild()
	}
	dist := comm.MultiSourceBFS(gateways)
	for u := 0; u < n; u++ {
		if !f.isGW[u] && f.depth[u] >= 0 && dist[u] < 0 && up(u) {
			return rebuild()
		}
	}
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
		return rebuild()
	}
	out := &Forest{
		parent:   append([]int(nil), f.parent...),
		depth:    append([]int(nil), f.depth...),
		isGW:     append([]bool(nil), f.isGW...),
		gateways: append([]int(nil), f.gateways...),
	}
	for u := 0; u < n; u++ {
		if out.isGW[u] {
			out.depth[u] = 0
			out.parent[u] = -1
			continue
		}
		if dist[u] < 0 {
			out.parent[u], out.depth[u] = -1, -1
			continue
		}
		if !dirty[u] {
			out.depth[u] = dist[u]
			continue
		}
		var candidates []int
		for _, v := range comm.Neighbors(u) {
			if dist[v] == dist[u]-1 {
				candidates = append(candidates, v)
			}
		}
		if len(candidates) == 0 {
			return nil, false, fmt.Errorf("route: node %d at depth %d has no parent candidate", u, dist[u])
		}
		out.parent[u] = candidates[0]
		out.depth[u] = dist[u]
	}
	return out, false, nil
}

// TestRepairMatchesRebuildFuzzed drives a long random fail/recover sequence
// over a lattice (plus chords, so tie-breaks and multi-path repairs really
// occur) and asserts after every event that the incrementally repaired
// forest is bit-identical to the canonical full rebuild.
func TestRepairMatchesRebuildFuzzed(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		base := sortedClone(chordedLattice(6, 6, 12, rng).graph())
		n := base.NumNodes()
		gws := []int{0, n - 1}

		alive := make([]bool, n)
		for i := range alive {
			alive[i] = true
		}
		cur, err := BuildForestPartial(induced(base, alive), aliveGateways(gws, alive), nil)
		if err != nil {
			t.Fatal(err)
		}
		rebuilds, partitions := 0, 0
		for step := 0; step < 60; step++ {
			u := rng.Intn(n)
			alive[u] = !alive[u]
			comm := induced(base, alive)
			agws := aliveGateways(gws, alive)

			want, err := BuildForestPartial(comm, agws, nil)
			if err != nil {
				t.Fatalf("seed %d step %d: rebuild: %v", seed, step, err)
			}
			got, rebuilt, err := cur.Repair(comm, agws, alive, changedSet(base, u))
			if err != nil {
				t.Fatalf("seed %d step %d: repair: %v", seed, step, err)
			}
			assertForestsEqual(t, got, want, "repair vs rebuild")
			if rebuilt {
				rebuilds++
			}
			if want.NumDetached() > 0 {
				partitions++
			}
			cur = got
		}
		if rebuilds == 0 {
			t.Errorf("seed %d: fallback rebuild never triggered across 60 events", seed)
		}
		if partitions == 0 {
			t.Errorf("seed %d: fuzz never partitioned the network; weaken the topology", seed)
		}
	}
}

// TestRepairMatchesReferenceFromRandomTieBreaks starts where production
// starts, from a forest with random tie-breaks (NewMesh draws one), and
// drives fail/recover toggles and moves (a node drops its links and joins
// two random nodes) over chorded lattices. After every step Repair must
// equal referenceRepair on the same input: parents, depths, gateway marks
// and the rebuilt bit. Clean nodes keep their drawn parents, so the result
// is not the canonical rebuild.
func TestRepairMatchesReferenceFromRandomTieBreaks(t *testing.T) {
	incremental, rebuilds := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		adj := chordedLattice(6, 6, 12, rng)
		n := len(adj)
		gws := []int{0, n - 1}
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = true
		}
		base := sortedClone(adj.graph())
		cur, err := BuildForest(base, gws, rng)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 60; step++ {
			u := rng.Intn(n)
			changed := append([]int{u}, adj[u]...)
			if rng.Intn(2) == 0 {
				alive[u] = !alive[u]
			} else {
				for _, v := range adj[u] {
					adj[v] = slices.DeleteFunc(adj[v], func(w int) bool { return w == u })
				}
				adj[u] = nil
				for len(adj[u]) < 2 {
					if v := rng.Intn(n); v != u {
						adj.undirected(u, v)
					}
				}
				changed = append(changed, adj[u]...)
				base = sortedClone(adj.graph())
			}
			comm := induced(base, alive)
			agws := aliveGateways(gws, alive)
			want, wantRebuilt, err := referenceRepair(cur, comm, agws, alive, changed)
			if err != nil {
				t.Fatalf("seed %d step %d: reference: %v", seed, step, err)
			}
			got, rebuilt, err := cur.Repair(comm, agws, alive, changed)
			if err != nil {
				t.Fatalf("seed %d step %d: repair: %v", seed, step, err)
			}
			what := fmt.Sprintf("seed %d step %d", seed, step)
			assertForestsEqual(t, got, want, what)
			if rebuilt != wantRebuilt {
				t.Fatalf("%s: rebuilt %v, reference %v", what, rebuilt, wantRebuilt)
			}
			if rebuilt {
				rebuilds++
			} else {
				incremental++
			}
			cur = got
		}
	}
	if incremental == 0 || rebuilds == 0 {
		t.Fatalf("%d incremental repairs and %d rebuilds: both outcomes must occur", incremental, rebuilds)
	}
	t.Logf("%d incremental repairs, %d rebuilds", incremental, rebuilds)
}

// TestRepairPartitionFallback carves a corner subtree off a lattice and
// asserts the repair falls back to a full rebuild, detaching exactly the
// stranded component.
func TestRepairPartitionFallback(t *testing.T) {
	// 5x5 lattice, gateway at the far corner. Killing nodes 1 and 5 severs
	// node 0 from everything else.
	full := latticeGraph(5, 5)
	n := 25
	gws := []int{24}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	cur, err := BuildForestPartial(induced(full, alive), gws, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{1, 5} {
		alive[u] = false
		comm := induced(full, alive)
		got, rebuilt, err := cur.Repair(comm, gws, alive, changedSet(full, u))
		if err != nil {
			t.Fatal(err)
		}
		if u == 5 { // second cut: node 0 is now stranded
			if !rebuilt {
				t.Fatal("partition did not trigger the rebuild fallback")
			}
			if got.Depth(0) >= 0 {
				t.Fatal("stranded node 0 not detached")
			}
			if got.NumDetached() != 3 { // 0 plus the two dead nodes
				t.Fatalf("detached %d nodes, want 3", got.NumDetached())
			}
		}
		cur = got
	}
}

// TestRepairGatewayChangeFallsBack kills a gateway and asserts the repair
// rebuilds against the surviving gateway set.
func TestRepairGatewayChangeFallsBack(t *testing.T) {
	full := latticeGraph(4, 4)
	n := 16
	gws := []int{0, 15}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	cur, err := BuildForestPartial(induced(full, alive), gws, nil)
	if err != nil {
		t.Fatal(err)
	}
	alive[0] = false
	comm := induced(full, alive)
	agws := aliveGateways(gws, alive)
	got, rebuilt, err := cur.Repair(comm, agws, alive, changedSet(full, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatal("gateway death did not trigger the rebuild fallback")
	}
	want, err := BuildForestPartial(comm, agws, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertForestsEqual(t, got, want, "post-gateway-death")
	if got.IsGateway(0) {
		t.Fatal("dead gateway still marked as gateway")
	}
	for u := 1; u < n; u++ {
		if got.Depth(u) >= 0 && gatewayOf(got, u) != 15 {
			t.Fatalf("node %d routed to gateway %d, want 15", u, gatewayOf(got, u))
		}
	}
}

// BenchmarkForestRepair measures one single-failure repair on a 32x32
// lattice against the full rebuild it replaces (tracked by benchguard in
// BENCH_BASELINE.json).
func BenchmarkForestRepair(b *testing.B) {
	rows, cols := 32, 32
	full := latticeGraph(rows, cols)
	n := rows * cols
	gws := []int{0, cols - 1, n - cols, n - 1}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	base, err := BuildForestPartial(full, gws, nil)
	if err != nil {
		b.Fatal(err)
	}
	victim := (rows/2)*cols + cols/2
	alive[victim] = false
	comm := induced(full, alive)
	changed := changedSet(full, victim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := base.Repair(comm, gws, alive, changed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestRebuild is the full-rebuild baseline for
// BenchmarkForestRepair.
func BenchmarkForestRebuild(b *testing.B) {
	rows, cols := 32, 32
	full := latticeGraph(rows, cols)
	n := rows * cols
	gws := []int{0, cols - 1, n - cols, n - 1}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	alive[(rows/2)*cols+cols/2] = false
	comm := induced(full, alive)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildForestPartial(comm, gws, nil); err != nil {
			b.Fatal(err)
		}
	}
}
