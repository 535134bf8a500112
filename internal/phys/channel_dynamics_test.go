package phys

// Tests for the targeted RX-power-matrix invalidation behind MoveNode and
// RemoveNode: after any mutation sequence the cached matrix must be
// bit-identical to the matrix of a channel freshly built from the mutated
// gain matrix, and the channel must remain safe for concurrent readers once
// the mutation returns (run under -race).

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"scream/internal/geom"
)

// gridGains returns the symmetric gain matrix of n nodes at the given
// positions under default log-distance propagation.
func gridGains(pos [][2]float64) [][]float64 {
	pts := make([]geom.Point, len(pos))
	for i, p := range pos {
		pts[i] = geom.Point{X: p[0], Y: p[1]}
	}
	return BuildGainMatrix(pts, DefaultLogDistance(), nil)
}

// copyMatrix deep-copies a gain matrix so that a fresh reference channel is
// not aliased to the mutated one.
func copyMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// freshChannel builds a reference channel from the mutated channel's current
// gains and powers.
func freshChannel(t *testing.T, ch *Channel) *Channel {
	t.Helper()
	n := ch.NumNodes()
	gain := make([][]float64, n)
	pw := make([]float64, n)
	for u := 0; u < n; u++ {
		gain[u] = make([]float64, n)
		for v := range gain[u] {
			gain[u][v] = ch.Gain(u, v)
		}
		pw[u] = ch.txPowerMW[u]
	}
	ref, err := NewChannel(pw, gain, ch.NoiseMW(), ch.Beta())
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// assertMatrixIdentical compares every RX-power entry of the two channels
// bit for bit.
func assertMatrixIdentical(t *testing.T, got, want *Channel, what string) {
	t.Helper()
	n := got.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			g, w := got.RxPowerMW(u, v), want.RxPowerMW(u, v)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: RxPowerMW(%d,%d) = %v, fresh channel has %v", what, u, v, g, w)
			}
		}
	}
}

// TestMoveNodeMatrixIdentical mutates a channel through a random
// sequence of moves and removals and asserts the cached matrix stays
// bit-identical to a fresh build at every step.
func TestMoveNodeMatrixIdentical(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(7))
	pos := make([][2]float64, n)
	for i := range pos {
		pos[i] = [2]float64{rng.Float64() * 300, rng.Float64() * 300}
	}
	gains := gridGains(pos)
	pw := make([]float64, n)
	for i := range pw {
		pw[i] = DBm(4 + 3*rng.Float64()).MilliWatts()
	}
	ch, err := NewChannel(pw, copyMatrix(gains), DBm(-96).MilliWatts(), DB(10).Linear())
	if err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 25; step++ {
		u := rng.Intn(n)
		switch rng.Intn(3) {
		case 0: // move
			pos[u] = [2]float64{rng.Float64() * 300, rng.Float64() * 300}
			row := gridGains(pos)[u]
			if err := ch.MoveNode(u, row); err != nil {
				t.Fatal(err)
			}
		case 1: // remove
			if err := ch.RemoveNode(u); err != nil {
				t.Fatal(err)
			}
		default: // restore at the current position
			row := gridGains(pos)[u]
			if err := ch.MoveNode(u, row); err != nil {
				t.Fatal(err)
			}
		}
		assertMatrixIdentical(t, ch, freshChannel(t, ch), "after mutation")
	}
}

// TestMoveNodeColdCache removes a node from a channel nobody has read yet:
// the matrix NewChannel filled must be patched like a read one.
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
		if err := ch.MoveNode(u, gridGains(pos)[u]); err != nil {
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
