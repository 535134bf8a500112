//go:build !race

package serve

// Allocation counts under the race detector include its own bookkeeping, so
// the counted tests here build without it.

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"scream"
)

// TestPreloadedSessionAllocates: a static session on a preloaded 16×16
// scenario runs on the shared mesh and reads the capacity frame the mesh
// keeps, so, with the default 1 MiB trace capture, it allocates at most
// 0.6× the 1,506,806 B a session took when each one cloned the mesh and
// rebuilt the frame.
func TestPreloadedSessionAllocates(t *testing.T) {
	spec := scream.ScenarioSpec{
		Name:           "dense256",
		Topology:       scream.TopologySpec{Kind: "grid", Rows: 16, Cols: 16, StepMeters: 30},
		Traffic:        scream.TrafficSpec{Kind: "poisson", Load: 0.9},
		Scheduler:      "greedy",
		HorizonSec:     0.5,
		FramesPerEpoch: 1,
		MaxService:     16,
	}
	s, err := New(Config{Scenarios: []scream.ScenarioSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	code := 0
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/run?scenario=dense256", nil))
			code = rec.Code
		}
	})
	if code != http.StatusOK {
		t.Fatalf("session answered %d, want 200", code)
	}
	if got, limit := res.AllocedBytesPerOp(), int64(1506806*6/10); got > limit {
		t.Errorf("a preloaded static session allocates %d B in %d allocations, want at most %d", got, res.AllocsPerOp(), limit)
	} else {
		t.Logf("a preloaded static session: %d B in %d allocations", got, res.AllocsPerOp())
	}
}
