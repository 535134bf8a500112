package phys

// Tests for MoveNode, RemoveNode and Clone, which touch only gains: after
// any mutation sequence the channel must answer every query bit-identically
// to a channel freshly built over the same deployment state, and it must
// remain safe for concurrent readers once the mutation returns (run under
// -race).

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"scream/internal/geom"
)

// gridGains returns the symmetric gain matrix of n nodes at the given
// positions under default log-distance propagation.
func gridGains(pos [][2]float64) []float64 {
	pts := make([]geom.Point, len(pos))
	for i, p := range pos {
		pts[i] = geom.Point{X: p[0], Y: p[1]}
	}
	return BuildGainMatrix(pts, DefaultLogDistance(), nil)
}

// gainRow returns row u of a row-major square matrix.
func gainRow(m []float64, u int) []float64 {
	n := int(math.Sqrt(float64(len(m))))
	return m[u*n : (u+1)*n]
}

// freshChannel builds a reference channel from the mutated channel's current
// gains and powers.
func freshChannel(t *testing.T, ch *Channel) *Channel {
	t.Helper()
	n := ch.NumNodes()
	gain := make([]float64, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			gain[u*n+v] = ch.Gain(u, v)
		}
	}
	ref, err := NewChannel(slices.Clone(ch.txPowerMW), gain, ch.NoiseMW(), ch.Beta())
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// assertMatrixIdentical compares every gain and RX-power entry of the two
// channels bit for bit.
func assertMatrixIdentical(t *testing.T, got, want *Channel, what string) {
	t.Helper()
	n := got.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if g, w := got.Gain(u, v), want.Gain(u, v); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: Gain(%d,%d) = %v, fresh channel has %v", what, u, v, g, w)
			}
			g, w := got.RxPowerMW(u, v), want.RxPowerMW(u, v)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: RxPowerMW(%d,%d) = %v, fresh channel has %v", what, u, v, g, w)
			}
		}
	}
}

// built returns the channel a fresh build gives for d's current positions
// with the nodes in down silenced.
func built(t *testing.T, d deployment, down []bool) *Channel {
	t.Helper()
	ch := d.channel(t)
	for u, off := range down {
		if off {
			if err := ch.RemoveNode(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ch
}

// TestMoveNodeMatrixIdentical mutates grid, heterogeneous-power and
// shadowed channels through random sequences of moves, removals, restores
// and clones, and asserts after every step that the channel equals a fresh
// channel over its own gains and a fresh build of the deployment state, and
// that a clone and its original never see each other's mutations.
func TestMoveNodeMatrixIdentical(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(7))
	for _, d := range testDeployments(n, 3) {
		d.pos = slices.Clone(d.pos)
		ch := d.channel(t)
		down := make([]bool, n)
		// liveRow is u's gain row with the down nodes silenced, the row
		// topology dynamics hand MoveNode.
		liveRow := func(u int) []float64 {
			row := d.row(u)
			for v, off := range down {
				if off {
					row[v] = 0
				}
			}
			return row
		}
		moves, removals, restores, clones := 0, 0, 0, 0
		for step := 0; step < 40; step++ {
			u := rng.Intn(n)
			switch rng.Intn(4) {
			case 0: // move
				d.pos[u] = geom.Point{X: rng.Float64() * 250, Y: rng.Float64() * 250}
				if down[u] {
					continue // a down node's gains stay zero until it is restored
				}
				if err := ch.MoveNode(u, liveRow(u)); err != nil {
					t.Fatal(err)
				}
				moves++
			case 1: // remove
				if err := ch.RemoveNode(u); err != nil {
					t.Fatal(err)
				}
				down[u] = true
				removals++
			case 2: // restore at the current position
				down[u] = false
				if err := ch.MoveNode(u, liveRow(u)); err != nil {
					t.Fatal(err)
				}
				restores++
			default: // a clone mutated apart from its original
				c := ch.Clone()
				v := (u + 1) % n
				if err := c.RemoveNode(u); err != nil {
					t.Fatal(err)
				}
				assertMatrixIdentical(t, ch, built(t, d, down), d.name+": original after its clone's removal")
				cdown := slices.Clone(down)
				cdown[u] = true
				assertMatrixIdentical(t, c, built(t, d, cdown), d.name+": clone after its removal")
				if err := ch.RemoveNode(v); err != nil {
					t.Fatal(err)
				}
				down[v] = true
				assertMatrixIdentical(t, c, built(t, d, cdown), d.name+": clone after its original's removal")
				clones++
			}
			assertMatrixIdentical(t, ch, freshChannel(t, ch), d.name+": after mutation")
			assertMatrixIdentical(t, ch, built(t, d, down), d.name+": against a fresh build")
			assertExactProducts(t, ch, d.name+": after mutation")
		}
		if moves == 0 || removals == 0 || restores == 0 || clones == 0 {
			t.Fatalf("%s: %d moves, %d removals, %d restores, %d clones; every kind must run", d.name, moves, removals, restores, clones)
		}
	}
}

// TestMoveNodeColdCache removes a node from a channel nobody has read yet:
// its first reads must already see the node silenced.
func TestMoveNodeColdCache(t *testing.T) {
	ch := lineChannel(t, 8, 40, 17)
	if err := ch.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	if got := ch.RxPowerMW(3, 4); got != 0 {
		t.Fatalf("removed node still delivers %v mW", got)
	}
	if got := ch.RxPowerMW(2, 3); got != 0 {
		t.Fatalf("removed node still receives %v mW", got)
	}
	assertMatrixIdentical(t, ch, freshChannel(t, ch), "removal before any read")
}

// TestMoveNodeValidation covers the error paths.
func TestMoveNodeValidation(t *testing.T) {
	ch := lineChannel(t, 4, 40, 17)
	if err := ch.MoveNode(-1, make([]float64, 4)); err == nil {
		t.Error("negative node accepted")
	}
	if err := ch.MoveNode(4, make([]float64, 4)); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := ch.MoveNode(0, make([]float64, 3)); err == nil {
		t.Error("short gain row accepted")
	}
	if err := ch.MoveNode(0, []float64{0, -1, 0, 0}); err == nil {
		t.Error("negative gain accepted")
	}
}

// TestMoveNodeConcurrentReaders alternates exclusive mutations with bursts
// of concurrent readers. Under -race this proves the documented contract:
// mutations need exclusive access, but once applied the channel is safe to
// read from many goroutines, and every reader sees the post-mutation values.
func TestMoveNodeConcurrentReaders(t *testing.T) {
	const n, workers = 16, 8
	rng := rand.New(rand.NewSource(11))
	pos := make([][2]float64, n)
	for i := range pos {
		pos[i] = [2]float64{rng.Float64() * 400, rng.Float64() * 400}
	}
	ch, err := NewChannel(
		HomogeneousTestPower(n, DBm(10).MilliWatts()),
		gridGains(pos), DBm(-96).MilliWatts(), DB(10).Linear())
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 6; round++ {
		u := rng.Intn(n)
		pos[u] = [2]float64{rng.Float64() * 400, rng.Float64() * 400}
		if err := ch.MoveNode(u, gainRow(gridGains(pos), u)); err != nil {
			t.Fatal(err)
		}
		ref := freshChannel(t, ch)
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < 400; i++ {
					a, b := r.Intn(n), r.Intn(n)
					if math.Float64bits(ch.RxPowerMW(a, b)) != math.Float64bits(ref.RxPowerMW(a, b)) {
						select {
						case errs <- "reader saw a value differing from the fresh channel":
						default:
						}
						return
					}
				}
			}(int64(round*workers + w))
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// HomogeneousTestPower mirrors topo.HomogeneousPower without the import.
func HomogeneousTestPower(n int, mw float64) []float64 {
	pw := make([]float64, n)
	for i := range pw {
		pw[i] = mw
	}
	return pw
}
