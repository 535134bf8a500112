package scream

// The runtime observability API: an optional, dependency-free metrics
// registry plus a structured JSONL event tracer, surfaced over HTTP as
// Prometheus text exposition and net/http/pprof. Everything here is
// strictly write-only from the simulation's point of view — no scheduler,
// protocol or flow decision ever reads a metric — so enabling observability
// never changes a result: figure TSVs stay byte-identical with it on or
// off. See the "Observability" section of DESIGN.md.

import (
	"io"
	"net"
	"net/http"

	"scream/internal/obs"
	"scream/internal/sched"
)

// Observability aliases re-exported from internal/obs.
type (
	// ObsRegistry is a concurrency-safe registry of counters, gauges and
	// histograms. The zero pointer (nil) is valid everywhere one is
	// accepted and disables collection at zero cost.
	ObsRegistry = obs.Registry
	// ObsTracer writes structured JSONL events (schema "v":2: paired
	// span_begin/span_end lines plus instants — analyze with
	// cmd/screamtrace); nil disables tracing.
	ObsTracer = obs.Tracer
)

// NewObsRegistry returns an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsTracer returns a tracer emitting one JSON object per event to w.
// Call Flush before reading the output.
func NewObsTracer(w io.Writer) *ObsTracer { return obs.NewTracer(w) }

// EnableRuntimeMetrics installs r as the process-default registry, which
// runs without RunOptions.Metrics and builds no run owns (the figures, a
// mesh's FlowFrameTime) publish into, and registers the scream_sched_* and
// scream_phys_* series in it at zero. Pass nil to detach. Intended to be
// called once at startup by a CLI enabling observability; tests that need
// isolation pass a private registry via RunOptions.Metrics instead.
func EnableRuntimeMetrics(r *ObsRegistry) {
	obs.SetDefault(r)
	sched.RegisterMetrics(r)
}

// ServeObs binds addr (e.g. ":9090" or "127.0.0.1:0") and serves /metrics
// (Prometheus text format) and /debug/pprof/ for r in the background. It
// returns the server and the bound address.
func ServeObs(addr string, r *ObsRegistry) (*http.Server, net.Addr, error) {
	return obs.Serve(addr, r)
}
