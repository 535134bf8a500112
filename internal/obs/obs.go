// Package obs is the runtime observability substrate: a dependency-free,
// concurrency-safe metrics registry (counters, gauges, histograms with fixed
// bucket layouts) plus a structured JSONL event tracer (trace.go) and a
// Prometheus-text-format / pprof HTTP exposition surface (http.go).
//
// The design contract, enforced across every instrumented layer (core,
// sched, flow, dynam), is that the *disabled* path costs nothing: every
// metric handle type has nil-receiver no-op methods, so code holds plain
// `*obs.Counter` fields that are nil when observability is off and the hot
// path pays one predictable nil-check branch — no allocation, no atomic, no
// interface dispatch. Metrics are strictly write-only from the simulation's
// point of view: no control flow ever reads a metric, which is what keeps
// every figure TSV byte-identical whether observability is enabled or not.
//
// All counter and gauge values are int64 (simulated durations are counted in
// des.Time nanosecond ticks, exact by construction), so tests can assert
// conservation laws and measured-vs-analytic identities with == instead of
// float tolerances. Histograms observe float64s into bucket layouts fixed at
// registration, keeping exposition deterministic.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use; a nil *Counter is a no-op (the disabled path).
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Negative n is a programming error but is not checked on the
// hot path; the exposition layer reports whatever was accumulated.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric. The zero value is ready to use; a nil
// *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Max raises the gauge to n if n is larger (a running peak).
func (g *Gauge) Max(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution metric. Bucket upper bounds are
// set at registration and never change, so the exposition layout (and any
// golden output derived from it) is deterministic. A nil *Histogram is a
// no-op.
type Histogram struct {
	upper  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records v into its bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are few (fixed small layouts); linear scan beats binary
	// search at these sizes and is branch-predictable.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the upper bounds and cumulative counts per bucket
// (including the implicit +Inf bucket as the last entry).
func (h *Histogram) Buckets() (upper []float64, cumulative []int64) {
	if h == nil {
		return nil, nil
	}
	upper = append(upper, h.upper...)
	upper = append(upper, math.Inf(1))
	total := int64(0)
	cumulative = make([]int64, len(h.counts))
	for i := range h.counts {
		total += h.counts[i].Load()
		cumulative[i] = total
	}
	return upper, cumulative
}

// DelayBuckets is the fixed bucket layout for end-to-end delay histograms,
// in seconds: 1 ms to 30 s on a 1-2-5 grid, matching the simulated-delay
// range of every flow scenario in the repo.
func DelayBuckets() []float64 {
	return []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 30}
}

// SlotFillBuckets is the fixed bucket layout for links-per-slot histograms.
func SlotFillBuckets() []float64 {
	return []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
}

// metricKind discriminates the registry's name table.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

type metric struct {
	name string // full name, possibly including a {label="..."} suffix
	kind metricKind
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a named collection of metrics. Get-or-create registration is
// guarded by a mutex; the returned handles are lock-free atomics, safe for
// concurrent writers (the experiment engine fans cells across workers that
// all write the same process-wide handles). A nil *Registry returns nil
// handles from every constructor, which is the disabled path end to end.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	ordered []*metric // registration order; exposition sorts by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// lookup returns the metric registered under name, creating it with mk when
// absent. Registering one name under two kinds is a programming error and
// panics: silently returning nil would make the caller's instrumentation
// vanish without a trace.
func (r *Registry) lookup(name, help string, kind metricKind, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, m.kind, kind))
		}
		return m
	}
	m := mk()
	m.name = name
	m.kind = kind
	m.help = help
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the counter registered under name, creating it on first
// use. name may embed Prometheus labels (`foo_total{reason="x"}`); the help
// string is attached to the family (the part before '{'). Returns nil on a
// nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, func() *metric { return &metric{c: new(Counter)} }).c
}

// Gauge is Counter for gauges.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, func() *metric { return &metric{g: new(Gauge)} }).g
}

// Histogram returns the histogram registered under name, creating it with
// the given fixed bucket upper bounds (ascending) on first use. Later calls
// ignore buckets: the layout is fixed at registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, func() *metric {
		h := &Histogram{upper: append([]float64(nil), buckets...)}
		h.counts = make([]atomic.Int64, len(h.upper)+1)
		return &metric{h: h}
	}).h
}

// snapshot returns the registered metrics sorted by (family, name), so all
// labeled series of one family are adjacent and the exposition emits each
// family's HELP/TYPE header exactly once.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	out := append([]*metric(nil), r.ordered...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		fi, fj := family(out[i].name), family(out[j].name)
		if fi != fj {
			return fi < fj
		}
		return out[i].name < out[j].name
	})
	return out
}

// The process-default registry: nil until a CLI enables observability
// (flowsim/figgen -obs). A layer whose owner handed it no registry, such as
// a figure runner's or a mesh's own build, publishes into it; Resolve is
// its one reader.
var defaultReg atomic.Pointer[Registry]

// SetDefault installs r as the process-default registry (nil uninstalls).
func SetDefault(r *Registry) {
	defaultReg.Store(r)
}

// Resolve returns r, or the process default when r is nil: the registry a
// layer publishes into (nil disables it).
func Resolve(r *Registry) *Registry {
	if r != nil {
		return r
	}
	return defaultReg.Load()
}
