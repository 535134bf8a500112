package obs

import (
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if v, ok := r.TakeSnapshot().Counters["x_total"]; !ok || v != 42 {
		t.Fatalf("snapshot x_total = %d,%v want 42,true", v, ok)
	}
	// Get-or-create returns the same handle.
	if c2 := r.Counter("x_total", "ignored"); c2 != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("y", "a gauge")
	g.Set(5)
	g.Max(4) // below current: no-op
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.Max(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge after Max = %d, want 9", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("never", "")
	g := r.Gauge("never", "")
	h := r.Histogram("never", "", DelayBuckets())
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	// None of these may panic, and all read as zero.
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Max(9)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	var tr *Tracer
	tr.Emit("nothing", N("x", 1))
	if tr.Events() != 0 || tr.Flush() != nil {
		t.Fatal("nil tracer must be inert")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("clash", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_seconds", "delays", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+2+100; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	upper, cum := h.Buckets()
	wantUpper := []float64{0.1, 1, 10, math.Inf(1)}
	wantCum := []int64{2, 3, 4, 5} // 0.1 is inclusive (le semantics)
	for i := range wantUpper {
		if upper[i] != wantUpper[i] || cum[i] != wantCum[i] {
			t.Fatalf("bucket %d = (%g,%d), want (%g,%d)", i, upper[i], cum[i], wantUpper[i], wantCum[i])
		}
	}
}

// TestConcurrentWriters hammers one registry from many goroutines; run
// under -race (CI does) this is the concurrency-safety gate for the whole
// metrics substrate.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every worker also re-registers, exercising the get-or-create
			// path concurrently with the atomic writes.
			c := r.Counter("hits_total", "")
			g := r.Gauge("depth", "")
			h := r.Histogram("delay_seconds", "", DelayBuckets())
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				g.Max(int64(i))
				h.Observe(float64(i) * 0.001)
			}
		}()
	}
	wg.Wait()
	snap := r.TakeSnapshot()
	if v := snap.Counters["hits_total"]; v != workers*perWorker {
		t.Fatalf("hits_total = %d, want %d", v, workers*perWorker)
	}
	if h := snap.Histograms["delay_seconds"]; h.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`req_total{reason="x"}`, "requests").Add(3)
	r.Counter(`req_total{reason="y"}`, "requests").Add(4)
	r.Gauge("depth", "queue depth").Set(-2)
	r.Histogram("lat_seconds", "latency", []float64{1, 2}).Observe(1.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP depth queue depth
# TYPE depth gauge
depth -2
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="1"} 0
lat_seconds_bucket{le="2"} 1
lat_seconds_bucket{le="+Inf"} 1
lat_seconds_sum 1.5
lat_seconds_count 1
# HELP req_total requests
# TYPE req_total counter
req_total{reason="x"} 3
req_total{reason="y"} 4
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHistogramLabeledSeries(t *testing.T) {
	r := NewRegistry()
	r.Histogram(`fill{sched="greedy"}`, "slot fill", []float64{1}).Observe(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fill_bucket{sched="greedy",le="1"} 1`,
		`fill_sum{sched="greedy"} 1`,
		`fill_count{sched="greedy"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q in:\n%s", want, sb.String())
		}
	}
}

// TestGaugeMaxConcurrent races Max against itself and against Set from many
// goroutines (run under -race in CI): the CAS loop must converge on the true
// maximum — a lost update would surface as a smaller final value.
func TestGaugeMaxConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("peak", "")
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Max(int64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	if got, want := g.Value(), int64(workers*perWorker-1); got != want {
		t.Fatalf("gauge after concurrent Max = %d, want %d", got, want)
	}
	// Monotone even when racing with lower proposals afterwards.
	g.Max(5)
	if g.Value() != int64(workers*perWorker-1) {
		t.Fatal("Max regressed below the observed peak")
	}
}

// TestHistogramBucketsConformance checks Buckets() against the Prometheus
// text-format histogram semantics: `le` is inclusive, counts are cumulative
// and non-decreasing, the +Inf bucket equals the observation count, and the
// exposition renders exactly those numbers.
func TestHistogramBucketsConformance(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.01, 0.1, 1})
	obsv := []float64{0.01, 0.01, 0.05, 0.1, 0.7, 3, 42} // boundary values on purpose
	for _, v := range obsv {
		h.Observe(v)
	}
	upper, cum := h.Buckets()
	if len(upper) != 4 || !math.IsInf(upper[3], 1) {
		t.Fatalf("upper = %v, want trailing +Inf", upper)
	}
	wantCum := []int64{2, 4, 5, 7} // le-inclusive boundaries
	for i := range wantCum {
		if cum[i] != wantCum[i] {
			t.Fatalf("cum[%d] = %d, want %d (le=%g)", i, cum[i], wantCum[i], upper[i])
		}
		if i > 0 && cum[i] < cum[i-1] {
			t.Fatalf("cumulative counts decreased at bucket %d", i)
		}
	}
	if cum[3] != h.Count() {
		t.Fatalf("+Inf bucket %d != count %d", cum[3], h.Count())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="0.1"} 4`,
		`lat_seconds_bucket{le="1"} 5`,
		`lat_seconds_bucket{le="+Inf"} 7`,
		`lat_seconds_count 7`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

func TestDefaultRegistry(t *testing.T) {
	if Resolve(nil) != nil {
		t.Fatal("default registry must start nil")
	}
	r, own := NewRegistry(), NewRegistry()
	SetDefault(r)
	defer SetDefault(nil)
	if Resolve(nil) != r {
		t.Fatal("SetDefault did not install")
	}
	if Resolve(own) != own {
		t.Fatal("Resolve must prefer the registry it is given")
	}
}

func TestServeMetricsHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "ups").Inc()
	srv, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "up_total 1") {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}
	// pprof index must be mounted too.
	resp, err = http.Get("http://" + addr.String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
}
