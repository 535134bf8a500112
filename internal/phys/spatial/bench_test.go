package spatial_test

import (
	"math"
	"testing"

	"scream/internal/geom"
	"scream/internal/phys"
	"scream/internal/phys/spatial"
)

// gridDeployment lays n nodes on a ceil(sqrt(n))-wide grid at 30 m pitch
// with the TX power that closes a 30 m hop with 5% slack — the FigScale
// deployment, rebuilt locally so the benchmark has no dependency on the
// experiment layer.
func gridDeployment(n int) ([]geom.Point, []float64) {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	pl := phys.DefaultLogDistance()
	power := pl.PowerForRange(30*1.05, testNoiseMW, testBeta)
	pos := make([]geom.Point, n)
	pw := make([]float64, n)
	for i := 0; i < n; i++ {
		pos[i] = geom.Point{X: float64(i%side) * 30, Y: float64(i/side) * 30}
		pw[i] = power
	}
	return pos, pw
}

func benchIndex(b *testing.B, n int) *spatial.Index {
	b.Helper()
	pos, pw := gridDeployment(n)
	idx, err := spatial.New(spatial.Config{
		Pos: pos, TxPowerMW: pw, PathLoss: phys.DefaultLogDistance(),
		NoiseMW: testNoiseMW, Beta: testBeta,
	})
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

// BenchmarkSpatialCanAdd10k measures the per-probe admission cost against a
// partially occupied slot over a 10k-node deployment — the hot query of
// every spatial greedy schedule. The occupants are one link per 64th node,
// spread across the grid, so probes pay a realistic mix of exact near-field
// distances and far-field table caps.
func BenchmarkSpatialCanAdd10k(b *testing.B) {
	const n = 10000
	idx := benchIndex(b, n)
	var st phys.SlotState
	st.Init(idx)
	for u := 64; u < n; u += 64 {
		if c := phys.NewCandidate(idx, phys.Link{From: u, To: u - 1}); st.CanAdd(c) {
			st.Add(c)
		}
	}
	// The probes' candidates are built outside the timed loop, as a schedule
	// build computes each link's signals once and probes every slot with them.
	probes := make([]phys.Candidate, 0, 97)
	for u := 33; len(probes) < cap(probes); u += 101 {
		probes = append(probes, phys.NewCandidate(idx, phys.Link{From: u % n, To: (u + 1) % n}))
	}
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		sink = st.CanAdd(probes[i%len(probes)]) != sink
	}
	_ = sink
}

// BenchmarkSpatialBuild50k measures constructing the index over 50k nodes —
// the whole-deployment cost FigScale plots, at the sweep's top point (where
// the dense engine's matrix would be 20 GB).
func BenchmarkSpatialBuild50k(b *testing.B) {
	const n = 50000
	pos, pw := gridDeployment(n)
	pl := phys.DefaultLogDistance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := spatial.New(spatial.Config{
			Pos: pos, TxPowerMW: pw, PathLoss: pl,
			NoiseMW: testNoiseMW, Beta: testBeta,
		})
		if err != nil {
			b.Fatal(err)
		}
		if idx.NumNodes() != n {
			b.Fatal("bad index")
		}
	}
}
