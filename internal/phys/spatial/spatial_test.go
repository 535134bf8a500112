package spatial_test

// Conservativeness is the spatial engine's load-bearing property: every
// admission decision it says yes to, the exact dense engine must also say
// yes to (the reverse may fail — that is the price of O(n) memory). The
// tests here pin it three ways: an incremental slot-state comparison over
// randomized deployments, a whole-schedule Verify against the exact channel,
// and a byte-driven fuzz harness over arbitrary layouts. A separate test
// hammers a shared index from concurrent readers for the -race build.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"scream/internal/geom"
	"scream/internal/phys"
	"scream/internal/phys/spatial"
	"scream/internal/sched"
)

const (
	testNoiseMW = 2.5118864315095823e-10 // -96 dBm
	testBeta    = 10                     // 10 dB
)

// buildPair constructs the spatial index and the exact dense channel over
// the same deployment.
func buildPair(t testing.TB, pos []geom.Point, pw []float64, cutoffM float64) (*spatial.Index, *phys.Channel) {
	t.Helper()
	pl := phys.DefaultLogDistance()
	idx, err := spatial.New(spatial.Config{
		Pos: pos, TxPowerMW: pw, PathLoss: pl,
		NoiseMW: testNoiseMW, Beta: testBeta, CutoffM: cutoffM,
	})
	if err != nil {
		t.Fatalf("spatial.New: %v", err)
	}
	n := len(pos)
	gain := make([]float64, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				gain[u*n+v] = pl.Gain(pos[u].Dist(pos[v]))
			}
		}
	}
	ch, err := phys.NewChannel(pw, gain, testNoiseMW, testBeta)
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	return idx, ch
}

// feasibleLinks returns every directed link that is singleton-feasible under
// the exact channel (both directions clear beta against noise) — the
// candidate set a routing layer could ever hand a scheduler.
func feasibleLinks(ch *phys.Channel, n int) []phys.Link {
	floor := ch.Beta() * ch.NoiseMW()
	var links []phys.Link
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if ch.RxPowerMW(u, v) >= floor && ch.RxPowerMW(v, u) >= floor {
				links = append(links, phys.Link{From: u, To: v})
			}
		}
	}
	return links
}

// checkConservative drives one deployment through both engines and fails on
// any admission the spatial engine allows but the dense engine rejects. It
// returns the greedy schedule lengths (spatial, dense) for gap pinning.
func checkConservative(t *testing.T, pos []geom.Point, pw []float64, cutoffM float64, rng *rand.Rand) (int, int) {
	t.Helper()
	idx, ch := buildPair(t, pos, pw, cutoffM)
	links := feasibleLinks(ch, len(pos))
	if len(links) == 0 {
		return 0, 0
	}

	// Incremental comparison: admit greedily by the spatial engine's answer,
	// keeping both slot states on the identical occupancy. Any link the
	// spatial state admits must be admissible to the dense state too.
	var sSpat, sDense phys.SlotState
	sSpat.Init(idx, false)
	sDense.Init(ch, false)
	for _, l := range links {
		cs, cd := phys.NewCandidate(idx, l), phys.NewCandidate(ch, l)
		if sSpat.CanAdd(cs) {
			if !sDense.CanAdd(cd) {
				t.Fatalf("cutoff=%g: spatial admitted %v into a slot the dense engine rejects (occupants %v)",
					cutoffM, l, sDense.AppendLinks(nil))
			}
			sSpat.Add(cs)
			sDense.Add(cd)
		}
	}

	// Whole-schedule comparison: a spatial-built greedy schedule must verify
	// under the exact model, slot by slot.
	demands := make([]int, len(links))
	for i := range demands {
		demands[i] = 1 + rng.Intn(3)
	}
	spatSched, err := sched.GreedyPhysical(idx, links, demands, sched.ByHeadIDDesc)
	if err != nil {
		t.Fatalf("cutoff=%g: spatial greedy: %v", cutoffM, err)
	}
	if err := spatSched.Verify(ch, links, demands); err != nil {
		t.Fatalf("cutoff=%g: spatial-built schedule infeasible under the exact model: %v", cutoffM, err)
	}
	denseSched, err := sched.GreedyPhysical(ch, links, demands, sched.ByHeadIDDesc)
	if err != nil {
		t.Fatalf("cutoff=%g: dense greedy: %v", cutoffM, err)
	}
	return spatSched.Length(), denseSched.Length()
}

// randomDeployment draws n nodes uniform in a side x side square with
// heterogeneous TX power spanning 6 dB above the grid default.
func randomDeployment(rng *rand.Rand, n int, side float64) ([]geom.Point, []float64) {
	pos := make([]geom.Point, n)
	pw := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		pw[i] = phys.DBm(4 + 6*rng.Float64()).MilliWatts()
	}
	return pos, pw
}

// TestSpatialConservativeVsDense fuzzes the conservativeness property over
// random uniform deployments and a grid, across cutoff radii from "almost
// everything is far-field" to "everything is near-field", and pins the
// schedule-length gap the conservative bound costs.
func TestSpatialConservativeVsDense(t *testing.T) {
	// gapFactor bounds how much longer a spatial-built greedy schedule may
	// run versus the dense-built one on the same instance. The far-field cap
	// only ever rejects extra placements, so the gap is one-sided; 2.0 holds
	// across the sweep below, whose observed worst case is ~1.56 (a sparse
	// 900 m deployment under the derived cutoff, where most pairs sit in the
	// far field and pay the full bucket cap).
	const gapFactor = 2.0
	for seed := int64(0); seed < 6; seed++ {
		for _, side := range []float64{400, 900} {
			for _, cutoff := range []float64{0, 150, 400} {
				name := fmt.Sprintf("seed=%d/side=%g/cutoff=%g", seed, side, cutoff)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(1000*seed + int64(side) + int64(cutoff)))
					pos, pw := randomDeployment(rng, 40, side)
					spat, dense := checkConservative(t, pos, pw, cutoff, rng)
					if spat > 0 && float64(spat) > gapFactor*float64(dense) {
						t.Errorf("schedule gap too wide: spatial %d slots vs dense %d (cap %gx)",
							spat, dense, gapFactor)
					}
				})
			}
		}
	}
	t.Run("grid", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		var pos []geom.Point
		var pw []float64
		pl := phys.DefaultLogDistance()
		power := pl.PowerForRange(30*1.05, testNoiseMW, testBeta)
		for r := 0; r < 7; r++ {
			for c := 0; c < 7; c++ {
				pos = append(pos, geom.Point{X: float64(c) * 30, Y: float64(r) * 30})
				pw = append(pw, power)
			}
		}
		checkConservative(t, pos, pw, 0, rng)
	})
}

// FuzzSpatialConservative derives a deployment from raw bytes — five bytes
// per node (x, y, power) plus one trailing cutoff selector — and asserts the
// incremental admission comparison on it. go test runs the seed corpus;
// go test -fuzz explores further.
func FuzzSpatialConservative(f *testing.F) {
	f.Add([]byte{0, 0, 10, 10, 1, 200, 0, 220, 20, 2, 0})
	f.Add([]byte{5, 5, 5, 5, 9, 5, 200, 5, 200, 9, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const perNode = 5
		if len(data) < 2*perNode+1 {
			return
		}
		cutSel := data[len(data)-1]
		data = data[:len(data)-1]
		n := len(data) / perNode
		if n > 48 {
			n = 48
		}
		pos := make([]geom.Point, n)
		pw := make([]float64, n)
		for i := 0; i < n; i++ {
			b := data[i*perNode:]
			x := binary.LittleEndian.Uint16([]byte{b[0], b[1]})
			y := binary.LittleEndian.Uint16([]byte{b[2], b[3]})
			pos[i] = geom.Point{X: float64(x % 2000), Y: float64(y % 2000)}
			pw[i] = phys.DBm(float64(b[4]%16) - 2).MilliWatts()
		}
		cutoff := float64(cutSel%4) * 120 // 0 (derived), 120, 240, 360 m
		rng := rand.New(rand.NewSource(int64(cutSel)))
		checkConservative(t, pos, pw, cutoff, rng)
	})
}

// TestSpatialConcurrentReaders hammers one shared index from parallel
// readers; the -race build turns any unsynchronized state into a failure.
// The engine promises Channel's contract: concurrent reads are safe as long
// as no mutation runs.
func TestSpatialConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pos, pw := randomDeployment(rng, 64, 600)
	idx, _ := buildPair(t, pos, pw, 0)
	n := idx.NumNodes()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sink := 0.0
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					sink += idx.SignalMW(u, v) + idx.InterfMW(u, v) + idx.Gain(u, v)
				}
			}
			var st phys.SlotState
			st.Init(idx, false)
			for u := 1; u < n; u++ {
				if c := phys.NewCandidate(idx, phys.Link{From: u, To: u - 1}); st.CanAdd(c) {
					st.Add(c)
				}
			}
			if sink < 0 {
				t.Errorf("reader %d: negative power sum %g", g, sink)
			}
		}(g)
	}
	wg.Wait()
	if idx.MemoryBytes() <= 0 {
		t.Error("MemoryBytes reported nothing")
	}
}
