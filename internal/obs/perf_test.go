package obs

import (
	"strings"
	"testing"
)

func TestPerfSampling(t *testing.T) {
	r := NewRegistry()
	p := NewPerf(r, "greedy")
	clock := int64(0)
	p.now = func() int64 { clock += 1_500_000; return clock } // 1.5 ms per reading

	start := p.Start()
	p.Build(start) // 1.5 ms
	start = p.Start()
	p.Epoch(start) // 1.5 ms

	snap := r.TakeSnapshot()
	h := snap.Histograms[`scream_perf_build_seconds{sched="greedy"}`]
	if h.Count != 1 {
		t.Fatalf("build histogram count = %d, want 1", h.Count)
	}
	if h.Sum < 1e-3 || h.Sum > 2e-3 {
		t.Fatalf("build sum = %g s, want ~1.5ms", h.Sum)
	}
	if h := snap.Histograms[`scream_perf_epoch_seconds{sched="greedy"}`]; h.Count != 1 {
		t.Fatalf("epoch histogram count = %d, want 1", h.Count)
	}
}

// TestPerfNilDisabled: a nil sampler is the zero-cost disabled path — every
// method is a no-op and Start hands back 0.
func TestPerfNilDisabled(t *testing.T) {
	var p *Perf
	if p != NewPerf(nil, "x") {
		t.Fatal("NewPerf(nil) must return nil")
	}
	if p.Start() != 0 {
		t.Fatal("nil Start must return 0")
	}
	p.Build(0)
	p.Epoch(0)
	if n := testing.AllocsPerRun(100, func() {
		s := p.Start()
		p.Build(s)
		p.Epoch(s)
	}); n != 0 {
		t.Fatalf("nil Perf allocates %.0f per run, want 0", n)
	}
}

func TestPerfBucketsCoverHotPathRange(t *testing.T) {
	b := PerfBuckets()
	if b[0] > 1e-6 || b[len(b)-1] < 10 {
		t.Fatalf("buckets [%g, %g] must span 1µs..10s", b[0], b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not strictly increasing at %d: %g <= %g", i, b[i], b[i-1])
		}
	}
}

func TestLabelEscape(t *testing.T) {
	got := labelEscape("a\\b\"c\nd")
	want := `a\\b\"c\nd`
	if got != want {
		t.Fatalf("labelEscape = %q, want %q", got, want)
	}
	r := NewRegistry()
	NewPerf(r, `we"ird\name`)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `sched="we\"ird\\name"`) {
		t.Fatalf("exposition lacks escaped label:\n%s", sb.String())
	}
}
