package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scream/internal/geom"
	"scream/internal/phys"
)

// assertPairSymmetric fails unless e answers the pair's Gain and InterfGain
// with the same bits in both orders and InterfGain(u, v) >= Gain(u, v): the
// phys.Engine contract SlotState's two reads per member rest on.
func assertPairSymmetric(t *testing.T, what string, e phys.Engine, u, v int) {
	t.Helper()
	bits := math.Float64bits
	g, ig := e.Gain(u, v), e.InterfGain(u, v)
	if back := e.Gain(v, u); bits(back) != bits(g) {
		t.Fatalf("%s: %T.Gain(%d, %d) = %v, Gain(%d, %d) = %v", what, e, u, v, g, v, u, back)
	}
	if back := e.InterfGain(v, u); bits(back) != bits(ig) {
		t.Fatalf("%s: %T.InterfGain(%d, %d) = %v, InterfGain(%d, %d) = %v", what, e, u, v, ig, v, u, back)
	}
	if !(ig >= g) {
		t.Fatalf("%s: %T.InterfGain(%d, %d) = %v below Gain %v", what, e, u, v, ig, g)
	}
}

// TestEnginesSymmetric drives the three engines — the dense Channel, an
// Index and a Memo over one deployment — through the same random moves,
// removals and restorations, on a grid at one power and on uniform nodes at
// heterogeneous powers. After every step each engine must answer every
// pair symmetrically (assertPairSymmetric), and the three must agree on
// every exact Gain bit for bit: the index evaluates the expression the
// dense gain builder does. Moves reach past the region, where the index
// clamps a node into an edge bucket.
func TestEnginesSymmetric(t *testing.T) {
	const n = 36
	pl := phys.DefaultLogDistance()
	rng := rand.New(rand.NewSource(5))
	grid := make([]geom.Point, n)
	uniform := make([]geom.Point, n)
	flat := make([]float64, n)
	hetero := make([]float64, n)
	for i := range grid {
		grid[i] = geom.Point{X: float64(i%6) * 30, Y: float64(i/6) * 30}
		uniform[i] = geom.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300}
		flat[i] = phys.DBm(17).MilliWatts()
		hetero[i] = phys.DBm(4 + 16*rng.Float64()).MilliWatts()
	}
	for _, d := range []struct {
		name string
		pos  []geom.Point
		pw   []float64
	}{{"grid", grid, flat}, {"heterogeneous", uniform, hetero}} {
		cfg := Config{
			Pos: d.pos, TxPowerMW: d.pw, PathLoss: pl,
			NoiseMW: 2.5118864315095823e-10, Beta: 10, CutoffM: 60,
		}
		idx, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		memo := NewMemo(inner)
		ch, err := phys.NewChannel(slices.Clone(d.pw), phys.BuildGainMatrix(d.pos, pl, nil), cfg.NoiseMW, cfg.Beta)
		if err != nil {
			t.Fatal(err)
		}
		pos := slices.Clone(d.pos)
		down := make([]bool, n)
		// row is u's gain row at the current positions with the down nodes
		// silenced: what topology dynamics hand Channel.MoveNode.
		row := func(u int) []float64 {
			r := make([]float64, n)
			for v := range r {
				if v != u && !down[v] {
					r[v] = pl.Gain(pos[u].Dist(pos[v]))
				}
			}
			return r
		}
		var far, near, cut int // InterfGain kinds seen: bucket cap, exact, cutoff gain
		for step := 0; step <= 30; step++ {
			u := rng.Intn(n)
			switch op := rng.Intn(3); {
			case step == 0: // the deployment as built
			case op == 0:
				pos[u] = geom.Point{X: rng.Float64()*360 - 30, Y: rng.Float64()*360 - 30}
				if err := idx.MoveNode(u, pos[u]); err != nil {
					t.Fatal(err)
				}
				if err := memo.MoveNode(u, pos[u]); err != nil {
					t.Fatal(err)
				}
				if !down[u] {
					if err := ch.MoveNode(u, row(u)); err != nil {
						t.Fatal(err)
					}
				}
			case op == 1:
				down[u] = true
				for _, err := range []error{idx.RemoveNode(u), memo.RemoveNode(u), ch.RemoveNode(u)} {
					if err != nil {
						t.Fatal(err)
					}
				}
			default:
				down[u] = false
				for _, err := range []error{idx.RestoreNode(u), memo.RestoreNode(u), ch.MoveNode(u, row(u))} {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			what := fmt.Sprintf("%s step %d", d.name, step)
			for a := 0; a < n; a++ {
				for b := a; b < n; b++ {
					for _, e := range []phys.Engine{ch, idx, memo} {
						assertPairSymmetric(t, what, e, a, b)
					}
					g := ch.Gain(a, b)
					if math.Float64bits(idx.Gain(a, b)) != math.Float64bits(g) || math.Float64bits(memo.Gain(a, b)) != math.Float64bits(g) {
						t.Fatalf("%s: Gain(%d, %d) = %v dense, %v index, %v memo", what, a, b, g, idx.Gain(a, b), memo.Gain(a, b))
					}
					switch ig := idx.InterfGain(a, b); {
					case g == 0:
					case ig == g:
						near++
					case ig == idx.gainAtCutoff:
						cut++
					default:
						far++
					}
				}
			}
		}
		if far == 0 || near == 0 || cut == 0 {
			t.Fatalf("%s: %d far-field, %d near-field and %d cutoff gains; every kind must be checked", d.name, far, near, cut)
		}
	}
}
