package route

// Property tests for incremental forest repair: across fuzzed fail/recover
// sequences, Repair must produce bit-identical forests to the canonical
// full rebuild (BuildForestPartial with nil rng), and the partition /
// gateway-change fallbacks must engage exactly when they should.

import (
	"math/rand"
	"slices"
	"testing"

	"scream/internal/graph"
)

// latticeGraph builds the rows x cols 4-neighbor lattice. Adjacency lists
// come out in ascending node order — the canonical order the builders'
// tie-breaking assumes.
func latticeGraph(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r+1 < rows {
				g.AddUndirected(id(r, c), id(r+1, c))
			}
			if c+1 < cols {
				g.AddUndirected(id(r, c), id(r, c+1))
			}
		}
	}
	return sortedClone(g)
}

// sortedClone rebuilds g with every adjacency list in ascending order,
// matching topo's edge-construction order.
func sortedClone(g *graph.Graph) *graph.Graph {
	n := g.NumNodes()
	out := graph.New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && slices.Contains(g.Neighbors(u), v) {
				out.AddEdge(u, v)
			}
		}
	}
	return out
}

// induced returns the subgraph of g restricted to alive nodes, preserving
// ascending adjacency order. Dead nodes stay present but isolated, exactly
// like a silenced radio in the rebuilt topo graphs.
func induced(g *graph.Graph, alive []bool) *graph.Graph {
	n := g.NumNodes()
	out := graph.New(n)
	for u := 0; u < n; u++ {
		if !alive[u] {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if alive[v] {
				out.AddEdge(u, v)
			}
		}
	}
	return out
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

// TestRepairMatchesRebuildFuzzed drives a long random fail/recover sequence
// over a lattice (plus chords, so tie-breaks and multi-path repairs really
// occur) and asserts after every event that the incrementally repaired
// forest is bit-identical to the canonical full rebuild.
func TestRepairMatchesRebuildFuzzed(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 6, 6
		full := latticeGraph(rows, cols)
		// Sprinkle chords to create tie-break-rich neighborhoods.
		n := rows * cols
		base := graph.New(n)
		for u := 0; u < n; u++ {
			for _, v := range full.Neighbors(u) {
				base.AddEdge(u, v)
			}
		}
		for i := 0; i < 12; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				base.AddUndirected(u, v)
			}
		}
		base = sortedClone(base)
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
			got, stats, err := cur.Repair(comm, agws, alive, changedSet(base, u), nil)
			if err != nil {
				t.Fatalf("seed %d step %d: repair: %v", seed, step, err)
			}
			assertForestsEqual(t, got, want, "repair vs rebuild")
			if stats.Detached != want.NumDetached() && !stats.Rebuilt {
				t.Fatalf("seed %d step %d: stats.Detached=%d, forest has %d", seed, step, stats.Detached, want.NumDetached())
			}
			if stats.Rebuilt {
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

// TestRepairRandomTieBreaksStayMinHop checks the rng-mode contract: depths
// and the detached set still match the canonical rebuild, every parent is a
// valid min-hop choice, and surviving parents are kept (route churn is
// limited to genuinely dirty nodes).
func TestRepairRandomTieBreaksStayMinHop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	full := latticeGraph(7, 7)
	n := 49
	gws := []int{0, 24, 48}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	cur, err := BuildForest(induced(full, alive), gws, rng)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		u := rng.Intn(n)
		alive[u] = !alive[u]
		comm := induced(full, alive)
		agws := aliveGateways(gws, alive)
		want, err := BuildForestPartial(comm, agws, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := cur.Repair(comm, agws, alive, changedSet(full, u), rng)
		if err != nil {
			t.Fatal(err)
		}
		reparented := 0
		for v := 0; v < n; v++ {
			if got.Depth(v) != want.Depth(v) {
				t.Fatalf("step %d: depth of %d: %d, rebuild %d", step, v, got.Depth(v), want.Depth(v))
			}
			if (got.Depth(v) < 0) != (want.Depth(v) < 0) {
				t.Fatalf("step %d: detachment of %d differs from rebuild", step, v)
			}
			if p := got.parent[v]; p >= 0 {
				if !slices.Contains(comm.Neighbors(v), p) {
					t.Fatalf("step %d: parent %d of %d is not a neighbor", step, p, v)
				}
				if got.Depth(p) != got.Depth(v)-1 {
					t.Fatalf("step %d: parent %d of %d is not one hop closer", step, p, v)
				}
			}
			if got.parent[v] != cur.parent[v] {
				reparented++
			}
		}
		if !stats.Rebuilt && reparented > stats.Dirty {
			t.Fatalf("step %d: %d nodes reparented but only %d dirty", step, reparented, stats.Dirty)
		}
		cur = got
	}
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
		got, stats, err := cur.Repair(comm, gws, alive, changedSet(full, u), nil)
		if err != nil {
			t.Fatal(err)
		}
		if u == 5 { // second cut: node 0 is now stranded
			if !stats.Rebuilt {
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
	got, stats, err := cur.Repair(comm, agws, alive, changedSet(full, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Rebuilt {
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
		if _, _, err := base.Repair(comm, gws, alive, changed, nil); err != nil {
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
