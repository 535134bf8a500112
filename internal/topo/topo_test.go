package topo

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"scream/internal/geom"
	"scream/internal/phys"
)

func TestGridPositions(t *testing.T) {
	pts := GridPositions(2, 3, 10)
	if len(pts) != 6 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0] != (geom.Point{X: 0, Y: 0}) || pts[5] != (geom.Point{X: 20, Y: 10}) {
		t.Errorf("corner points wrong: %v ... %v", pts[0], pts[5])
	}
}

func TestLinePositions(t *testing.T) {
	pts := LinePositions(4, 5)
	if pts[3] != (geom.Point{X: 15, Y: 0}) {
		t.Errorf("line positions wrong: %v", pts)
	}
}

func TestUniformPositionsInRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	region := geom.Rect{MinX: 10, MinY: 20, MaxX: 30, MaxY: 50}
	for _, p := range UniformPositions(500, region, rng) {
		if p.X < region.MinX || p.X > region.MaxX || p.Y < region.MinY || p.Y > region.MaxY {
			t.Fatalf("point %v outside region", p)
		}
	}
}

// TestBuildAllocatesOneMatrix: building a 16×16 grid allocates one n×n
// array, the channel's gains, and O(n) besides (positions, powers, the gain
// cache and the graphs): at most 8n² bytes plus 96 KB per build. Keeping
// the received powers as a second matrix took 16n².
func TestBuildAllocatesOneMatrix(t *testing.T) {
	const side, n = 16, 16 * 16
	cfg := GridConfig{Rows: side, Cols: side, Step: 30, Params: DefaultParams()}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewGrid(cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got, limit := res.AllocedBytesPerOp(), int64(8*n*n+96<<10); got > limit {
		t.Fatalf("NewGrid(%dx%d) allocates %d B per build, want at most %d (8n² + 96 KB)", side, side, got, limit)
	} else {
		t.Logf("NewGrid(%dx%d): %d B per build, 8n² = %d", side, side, got, 8*n*n)
	}
}

func TestNewGridBasics(t *testing.T) {
	net, err := NewGrid(GridConfig{Rows: 4, Cols: 4, Step: 30, Params: DefaultParams()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 16 {
		t.Fatalf("NumNodes = %d", net.NumNodes())
	}
	if !net.Connected() {
		t.Fatal("grid with derived power must be connected")
	}
	// Interior nodes should have exactly 4 communication neighbors when
	// range is just over one step (grid-step range, Section IV-B.1).
	interior := 5 // node (1,1) in a 4x4 grid
	if d := len(net.Comm.Neighbors(interior)); d != 4 {
		t.Errorf("interior degree = %d, want 4", d)
	}
	// Corner nodes have 2 neighbors.
	if d := len(net.Comm.Neighbors(0)); d != 2 {
		t.Errorf("corner degree = %d, want 2", d)
	}
}

func TestGridNeighborDensityTheta1(t *testing.T) {
	// rho(G) for a grid-step-range grid approaches 4 (Theta(1)) regardless
	// of n — the minimal-density scenario of Section IV-B.1.
	for _, dim := range []int{4, 6, 8} {
		net, err := NewGrid(GridConfig{Rows: dim, Cols: dim, Step: 25, Params: DefaultParams()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rho := net.NeighborDensity()
		if rho < 2 || rho > 4 {
			t.Errorf("dim %d: rho = %v, want in [2,4]", dim, rho)
		}
	}
}

func TestSensitivitySupergraphOfComm(t *testing.T) {
	// The sensitivity graph must contain every communication edge
	// (Section II: G_S is a super-graph of G).
	net, err := NewGrid(GridConfig{Rows: 5, Cols: 5, Step: 30, Params: DefaultParams()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < net.NumNodes(); u++ {
		for _, v := range net.Comm.Neighbors(u) {
			if !slices.Contains(net.Sens.Neighbors(u), v) {
				t.Fatalf("comm edge %d->%d missing from sensitivity graph", u, v)
			}
		}
	}
}

func TestInterferenceDiameterGridTheorem2(t *testing.T) {
	// Theorem 2: for a square-grid-convex region, ID(G) <= sqrt2*diam(R)/r.
	// For an aligned square of (k-1) steps, the bound is tight at 2*(k-1)
	// hops when rCS = rc = step.
	for _, dim := range []int{3, 4, 6, 8} {
		net, err := NewGrid(GridConfig{Rows: dim, Cols: dim, Step: 25, Params: DefaultParams()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		id := net.InterferenceDiameter()
		if id < 0 {
			t.Fatalf("dim %d: sensitivity graph not strongly connected", dim)
		}
		want := 2 * (dim - 1) // Manhattan diameter of the lattice
		if id != want {
			t.Errorf("dim %d: ID = %d, want %d", dim, id, want)
		}
		bound := math.Sqrt2 * net.Region.Diameter() / 25
		if float64(id) > bound+1e-9 {
			t.Errorf("dim %d: ID %d exceeds Theorem 2 bound %.3f", dim, id, bound)
		}
	}
}

func TestInterferenceDiameterScalingSqrtN(t *testing.T) {
	// Grid: ID = Theta(sqrt(n)); check ID(4k^2 nodes) ~ 2*ID(k^2 nodes).
	id := func(dim int) int {
		net, err := NewGrid(GridConfig{Rows: dim, Cols: dim, Step: 25, Params: DefaultParams()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return net.InterferenceDiameter()
	}
	small, large := id(4), id(8)
	ratio := float64(large) / float64(small)
	if ratio < 1.8 || ratio > 2.8 {
		t.Errorf("ID scaling ratio = %v, want about 2.33 (14/6)", ratio)
	}
}

func TestUniformInterferenceDiameterTheorem3(t *testing.T) {
	// Theorem 3: with r = sqrt(ln n / (pi n)) * side and uniform placement,
	// ID = Theta(sqrt(n / log n)). We verify the bound 2*sqrt(2*pi*n/ln n)
	// from the cell argument holds with slack on connected draws.
	rng := rand.New(rand.NewSource(3))
	n := 150
	side := 1000.0
	r := math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n))) * side
	p := DefaultParams()
	power := p.PathLoss.PowerForRange(r, p.NoiseMW, p.Beta)
	pts := UniformPositions(n, geom.Square(side), rng)
	net, err := Build(pts, HomogeneousPower(n, power), geom.Square(side), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Connected() {
		t.Skip("random draw disconnected at the connectivity threshold; acceptable")
	}
	id := net.InterferenceDiameter()
	bound := 2 * math.Sqrt(2*math.Pi*float64(n)/math.Log(float64(n)))
	if float64(id) > 2*bound {
		t.Errorf("ID = %d far exceeds Theorem 3 bound %.1f", id, bound)
	}
}

func TestDensityHelpers(t *testing.T) {
	side := SideForDensity(64, 1000) // 64 nodes at 1000/km^2 -> 0.064 km^2
	wantSide := math.Sqrt(0.064 * 1e6)
	if math.Abs(side-wantSide) > 1e-9 {
		t.Errorf("SideForDensity = %v, want %v", side, wantSide)
	}
	net, err := NewGrid(GridConfig{Rows: 8, Cols: 8, Step: side / 8, Params: DefaultParams()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Region is (7*step)^2; density is computed over the hull, so it will
	// exceed the nominal 1000/km^2 somewhat. Sanity-check the ballpark.
	d := net.DensityNodesPerSqKm()
	if d < 800 || d > 2000 {
		t.Errorf("density = %v, want ~1000-1400", d)
	}
}

func TestBuildValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := Build(nil, nil, geom.Square(1), p, nil); err == nil {
		t.Error("empty build should fail")
	}
	pts := LinePositions(3, 10)
	if _, err := Build(pts, []float64{1, 1}, geom.Square(1), p, nil); err == nil {
		t.Error("mismatched powers should fail")
	}
	p2 := p
	p2.ShadowSigmaDB = 4
	if _, err := Build(pts, HomogeneousPower(3, 1), geom.Square(1), p2, nil); err == nil {
		t.Error("shadowing without rng should fail")
	}
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(GridConfig{Rows: 0, Cols: 4, Step: 10, Params: DefaultParams()}, nil); err == nil {
		t.Error("zero rows should fail")
	}
	if _, err := NewGrid(GridConfig{Rows: 4, Cols: 4, Step: 0, Params: DefaultParams()}, nil); err == nil {
		t.Error("zero step should fail")
	}
}

func TestNewUniformConnectivityRetry(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := DefaultParams()
	net, err := NewUniform(UniformConfig{
		N: 40, Side: 300, MinTxDBm: 17, MaxTxDBm: 23, Params: p,
	}, rng)
	if err != nil {
		t.Fatalf("expected a connected draw: %v", err)
	}
	if !net.Connected() {
		t.Fatal("returned network should be connected")
	}
	// Heterogeneous powers should actually differ.
	same := true
	for _, nd := range net.Nodes[1:] {
		if nd.TxPowerMW != net.Nodes[0].TxPowerMW {
			same = false
			break
		}
	}
	if same {
		t.Error("heterogeneous powers expected")
	}
}

func TestNewUniformValidation(t *testing.T) {
	if _, err := NewUniform(UniformConfig{N: 0, Side: 10, Params: DefaultParams()}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewUniform(UniformConfig{N: 5, Side: 10, Params: DefaultParams()}, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestNewUniformImpossibleConnectivity(t *testing.T) {
	// Tiny power over a huge region cannot connect; expect error plus a
	// best-effort network.
	rng := rand.New(rand.NewSource(2))
	net, err := NewUniform(UniformConfig{
		N: 10, Side: 100000, MinTxDBm: -30, MaxTxDBm: -30, Params: DefaultParams(),
	}, rng)
	if err == nil {
		t.Fatal("expected connectivity failure")
	}
	if net == nil {
		t.Fatal("best-effort network should still be returned")
	}
}

func TestNewLine(t *testing.T) {
	net, err := NewLine(10, 30, DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Connected() {
		t.Fatal("line should be connected")
	}
	// A line's interference diameter is n-1 when range covers one step.
	if id := net.InterferenceDiameter(); id != 9 {
		t.Errorf("line ID = %d, want 9", id)
	}
}

func TestShadowingChangesGraph(t *testing.T) {
	// With strong shadowing, some nominal links drop and/or long links
	// appear; the build must remain well-formed and deterministic per seed.
	p := DefaultParams()
	p.ShadowSigmaDB = 8
	pts := GridPositions(5, 5, 30)
	region := geom.Square(120)
	n1, err := Build(pts, HomogeneousPower(25, phys.DBm(12).MilliWatts()), region, p, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Build(pts, HomogeneousPower(25, phys.DBm(12).MilliWatts()), region, p, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if n1.Comm.NumEdges() != n2.Comm.NumEdges() {
		t.Error("same seed must give the same graph")
	}
	n3, err := Build(pts, HomogeneousPower(25, phys.DBm(12).MilliWatts()), region, p, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if n1.Comm.NumEdges() == n3.Comm.NumEdges() && n1.Sens.NumEdges() == n3.Sens.NumEdges() {
		t.Log("different seeds coincidentally gave equal edge counts; acceptable but unusual")
	}
}

func TestHeterogeneousPowerRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pw := HeterogeneousPower(200, 10, 20, rng)
	lo, hi := phys.DBm(10).MilliWatts(), phys.DBm(20).MilliWatts()
	for _, p := range pw {
		if p < lo-1e-12 || p > hi+1e-12 {
			t.Fatalf("power %v outside [%v, %v]", p, lo, hi)
		}
	}
}
