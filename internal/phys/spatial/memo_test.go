package spatial

import (
	"math"
	"math/rand"
	"testing"

	"scream/internal/geom"
	"scream/internal/phys"
)

// TestMemoMatchesIndex runs a memo and a bare Index over the same random
// deployment through one random sequence of moves, removals, restorations
// and queries. Every SignalMW, InterfMW and Gain must agree bit for bit,
// queried in both orders of each pair: the memo's gains are the Index's own,
// and a move must leave no stale one behind. The queries favour a few hot
// nodes, so most of them hit the cache, and the deployment is dense enough
// that the table grows (dropping stale entries) and the stamp clock wraps.
func TestMemoMatchesIndex(t *testing.T) {
	const (
		n    = 200
		side = 400.0
	)
	rng := rand.New(rand.NewSource(1))
	pos := make([]geom.Point, n)
	pw := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		pw[i] = phys.DBm(4 + 6*rng.Float64()).MilliWatts()
	}
	cfg := Config{
		Pos: pos, TxPowerMW: pw, PathLoss: phys.DefaultLogDistance(),
		NoiseMW: 2.5118864315095823e-10, Beta: 10, CutoffM: 90,
	}
	bare, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(inner)
	if m.NumNodes() != bare.NumNodes() || m.NoiseMW() != bare.NoiseMW() || m.Beta() != bare.Beta() {
		t.Fatal("memo and index disagree on the deployment's scalars")
	}
	initial := len(m.table)

	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	check := func(step, u, v int) {
		t.Helper()
		for _, p := range [2][2]int{{u, v}, {v, u}} {
			a, b := p[0], p[1]
			if g, w := m.Gain(a, b), bare.Gain(a, b); !same(g, w) {
				t.Fatalf("step %d: Gain(%d, %d) = %v, index %v", step, a, b, g, w)
			}
			if g, w := m.SignalMW(a, b), bare.SignalMW(a, b); !same(g, w) {
				t.Fatalf("step %d: SignalMW(%d, %d) = %v, index %v", step, a, b, g, w)
			}
			if g, w := m.InterfMW(a, b), bare.InterfMW(a, b); !same(g, w) {
				t.Fatalf("step %d: InterfMW(%d, %d) = %v, index %v", step, a, b, g, w)
			}
		}
	}
	node := func() int {
		if rng.Intn(2) == 0 {
			return rng.Intn(12) // a hot node
		}
		return rng.Intn(n)
	}
	moves, sweeps := 0, 0
	for step := 0; step < 20000; step++ {
		if step == 10000 {
			// Three moves short of wrapping: the stamps start over below.
			m.clock = math.MaxUint32 - 3
		}
		switch r := rng.Intn(100); {
		case r < 4:
			// Some moves leave the region; both clamp to its edge buckets.
			u := node()
			p := geom.Point{X: (rng.Float64()*1.2 - 0.1) * side, Y: (rng.Float64()*1.2 - 0.1) * side}
			if err := bare.MoveNode(u, p); err != nil {
				t.Fatal(err)
			}
			if err := m.MoveNode(u, p); err != nil {
				t.Fatal(err)
			}
			moves++
		case r < 6:
			u := node()
			if err := bare.RemoveNode(u); err != nil {
				t.Fatal(err)
			}
			if err := m.RemoveNode(u); err != nil {
				t.Fatal(err)
			}
		case r < 8:
			u := node()
			if err := bare.RestoreNode(u); err != nil {
				t.Fatal(err)
			}
			if err := m.RestoreNode(u); err != nil {
				t.Fatal(err)
			}
		case r < 9 && sweeps < 8:
			for u := 0; u < n; u++ {
				for v := u; v < n; v++ {
					check(step, u, v)
				}
			}
			sweeps++
		default:
			check(step, node(), node())
		}
	}
	if moves < 100 || sweeps == 0 {
		t.Fatalf("sequence too tame: %d moves, %d sweeps", moves, sweeps)
	}
	if len(m.table) == initial {
		t.Errorf("table never grew past its initial %d slots", initial)
	}
	if m.clock > 1000 {
		t.Errorf("stamp clock at %d: it never wrapped", m.clock)
	}
	if err := m.MoveNode(n, geom.Point{}); err == nil {
		t.Error("MoveNode out of range succeeded")
	}
}

// TestMemoHoldsLivePairs: nodes that keep moving across a sparse deployment
// bring new near-field pairs into every round, many more over the run than
// the table holds, while only the current round's pairs are live. The
// memo must keep answering as the bare index does and rehash in place,
// dropping the stale pairs, instead of doubling for every pair it ever read.
func TestMemoHoldsLivePairs(t *testing.T) {
	const (
		n      = 300
		side   = 1000.0
		rounds = 30
	)
	rng := rand.New(rand.NewSource(2))
	pos := make([]geom.Point, n)
	pw := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		pw[i] = phys.DBm(4).MilliWatts()
	}
	cfg := Config{
		Pos: pos, TxPowerMW: pw, PathLoss: phys.DefaultLogDistance(),
		NoiseMW: 2.5118864315095823e-10, Beta: 10, CutoffM: 60,
		Region: geom.Rect{MaxX: side, MaxY: side},
	}
	bare, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(inner)
	initial := len(m.table)
	seen := map[[2]int]bool{}
	for round := 0; round < rounds; round++ {
		for u := 0; u < n; u++ {
			p := geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			if err := bare.MoveNode(u, p); err != nil {
				t.Fatal(err)
			}
			if err := m.MoveNode(u, p); err != nil {
				t.Fatal(err)
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				g, w := m.InterfMW(u, v), bare.InterfMW(u, v)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("round %d: InterfMW(%d, %d) = %v, index %v", round, u, v, g, w)
				}
				if cu, cv := m.cell[u], m.cell[v]; u < v && bare.gainUB[int(abs32(cu.y-cv.y))*bare.nx+int(abs32(cu.x-cv.x))] == nearSentinel {
					seen[[2]int{u, v}] = true
				}
			}
		}
	}
	if limit := 3 * initial / 4; len(seen) <= limit {
		t.Fatalf("only %d distinct near-field pairs over the run; the test needs more than the table's %d", len(seen), limit)
	}
	if len(m.table) != initial {
		t.Errorf("table grew from %d to %d slots although each round's live pairs fit", initial, len(m.table))
	}
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}
