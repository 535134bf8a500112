// Command screamd is the long-running mesh-controller daemon: an HTTP/JSON
// service that runs flow-level mesh simulations on demand and streams their
// progress. Clients POST a scenario document (see scream.ScenarioSpec) to
// /api/v1/run and receive per-epoch events as NDJSON (or server-sent events
// with Accept: text/event-stream), terminated by the full result. Preloaded
// scenarios (-scenarios) build their deployment once at startup; their
// sessions share it and none writes to it, so concurrent sessions are fully
// isolated.
//
// Endpoints:
//
//	GET  /healthz                     liveness probe
//	GET  /version                     build version
//	GET  /metrics                     Prometheus text exposition (scream_serve_*,
//	                                  scream_flow_*, scream_core_*, ...)
//	GET  /api/v1/metrics              the same registry as a JSON snapshot
//	GET  /api/v1/schedulers           the scheduler registry
//	GET  /api/v1/scenarios            preloaded scenario specs
//	GET  /api/v1/sessions             currently running sessions
//	GET  /api/v1/sessions/{id}/trace  the session's captured schema-v2 trace
//	                                  (JSONL; pipe into screamtrace)
//	POST /api/v1/run                  run a scenario, streaming epochs
//
// Every session's event trace is captured in a bounded in-memory ring
// (-trace-bytes per session, default 1 MiB, -1 to disable) and stays
// fetchable for a while after the run ends:
//
//	curl -s localhost:8080/api/v1/sessions/3/trace | screamtrace validate
//
// Concurrency is admission-controlled: at most -max-sessions simulations run
// at once, and further requests are refused with 429. SIGINT/SIGTERM drains
// gracefully — the listener closes, running sessions finish within
// -drain-timeout, and only then are stragglers canceled.
//
// Examples:
//
//	screamd -addr :8080 -max-sessions 8
//	screamd -scenarios testdata/scenario_grid.json
//	curl -N -X POST --data-binary @spec.json localhost:8080/api/v1/run
//	curl -N -X POST 'localhost:8080/api/v1/run?scenario=grid-4x4-poisson'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scream"
	"scream/internal/buildinfo"
	"scream/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxSessions = flag.Int("max-sessions", serve.DefaultMaxSessions, "concurrent simulation sessions (further runs get 429)")
		scenarios   = flag.String("scenarios", "", "comma-separated scenario JSON files to preload (their sessions share the prebuilt mesh)")
		traceBytes  = flag.Int("trace-bytes", 0, "per-session trace capture budget in bytes for /api/v1/sessions/{id}/trace (0 = 1 MiB default, -1 disables capture)")
		drain       = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget before running sessions are canceled")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}
	if err := run(*addr, *maxSessions, *scenarios, *traceBytes, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "screamd:", err)
		os.Exit(1)
	}
}

func run(addr string, maxSessions int, scenarioFiles string, traceBytes int, drain time.Duration) error {
	// One registry for everything: the daemon's serve_* session metrics,
	// every session's per-layer counters, and, as the process default, what
	// no session owns, such as a preloaded mesh's capacity frame.
	reg := scream.NewObsRegistry()
	scream.EnableRuntimeMetrics(reg)

	var specs []scream.ScenarioSpec
	if scenarioFiles != "" {
		for _, path := range strings.Split(scenarioFiles, ",") {
			spec, err := scream.LoadScenario(strings.TrimSpace(path))
			if err != nil {
				return err
			}
			if spec.Name == "" {
				return fmt.Errorf("scenario %s needs a name to be preloaded", path)
			}
			specs = append(specs, spec)
		}
	}

	srv, err := serve.New(serve.Config{
		Scenarios:   specs,
		MaxSessions: maxSessions,
		Metrics:     reg,
		TraceBytes:  traceBytes,
		Version:     buildinfo.Version(),
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	fmt.Printf("screamd: listening on http://%s (max %d sessions)\n", ln.Addr(), maxSessions)
	for _, s := range specs {
		fmt.Printf("screamd: preloaded scenario %q (%s, %s)\n", s.Name, s.Topology.Kind, s.SchedulerName())
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("screamd: %v: draining (budget %v)\n", s, drain)
	}

	// Graceful half: stop accepting, let streaming sessions run to their
	// horizon within the budget.
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err == nil {
		fmt.Println("screamd: drained cleanly")
		return nil
	}

	// Forced half: the budget is spent — cancel every session's context
	// (their streams end with an error event) and give the handlers a
	// moment to unwind before closing the remaining connections.
	fmt.Println("screamd: drain budget exceeded; canceling sessions")
	srv.CancelSessions()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(ctx2); err != nil {
		return httpSrv.Close()
	}
	return nil
}
