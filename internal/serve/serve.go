// Package serve is the HTTP service layer of the screamd daemon: a
// long-running, multi-tenant mesh-simulation controller. Clients POST a
// scream.ScenarioSpec (or name a preloaded scenario) to /api/v1/run and
// receive the run as a stream of per-epoch JSON events — NDJSON by default,
// server-sent events when requested — terminated by the full FlowResult.
//
// Every run is a session: admission-controlled (MaxSessions concurrent, 429
// beyond), isolated (sessions of a preloaded scenario share its deployment,
// which a static run only reads and a run under dynamics clones before it
// mutates, so concurrent runs never share mutable state), and individually
// cancelable (client disconnect or server drain aborts the run via its
// context). A panic inside a run ends that session's stream with an error
// event and counts the session as failed. The daemon's own scream_serve_*
// metrics land in the same registry as the simulation's flow/core/sched
// families and are exposed on /metrics (Prometheus text) and /api/v1/metrics
// (JSON snapshot).
//
// Each session's schema-v2 trace is captured in a bounded in-memory ring
// (Config.TraceBytes per session, never disk) and served at
// /api/v1/sessions/{id}/trace — live snapshots while the run streams, the
// full retained tail after it ends (completed sessions are kept for the
// trace endpoint until doneRetention newer ones displace them). Pipe it
// straight into the analyzer: curl .../trace | screamtrace validate.
//
// The package deliberately holds no scheduling logic: a streamed run is
// exactly scream.RunWith on the same spec — byte-for-byte the result a
// library caller gets in-process.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scream"
	"scream/internal/obs"
)

// Config parameterizes New.
type Config struct {
	// Scenarios preloads named scenarios: their meshes are built once at
	// startup and shared by every session that names them, so repeated runs
	// skip deployment construction. A session copies nothing before it is
	// admitted: a static run only reads the mesh, and a run under dynamics
	// clones the network it mutates (scream.RunWith). Specs must validate
	// and carry distinct, non-empty names.
	Scenarios []scream.ScenarioSpec
	// MaxSessions caps concurrently running simulations; further /api/v1/run
	// requests get 429 Too Many Requests. 0 means DefaultMaxSessions.
	MaxSessions int
	// Metrics is the registry backing /metrics and every run's simulation
	// counters. Nil creates a private registry.
	Metrics *scream.ObsRegistry
	// TraceBytes bounds each session's in-memory trace capture (the ring
	// behind /api/v1/sessions/{id}/trace). 0 means obs.DefaultRingBytes;
	// negative disables capture entirely.
	TraceBytes int
	// Version is reported by /version ("" = "dev").
	Version string
}

// DefaultMaxSessions is the admission cap when Config.MaxSessions is 0.
const DefaultMaxSessions = 4

// doneRetention is how many finished sessions keep their captured trace
// fetchable; older ones are evicted FIFO.
const doneRetention = 16

// scenario is a preloaded spec with its prebuilt deployment.
type scenario struct {
	spec scream.ScenarioSpec
	mesh *scream.Mesh
}

// session is one running simulation.
type session struct {
	id        int64
	name      string
	scenario  string // metric label: the preloaded scenario's name, or "adhoc"
	scheduler string
	started   time.Time
	epochs    atomic.Int64
	cancel    context.CancelFunc
	sink      *obs.RingSink // per-session trace capture; nil when disabled
}

// Server is the screamd HTTP handler. Create with New; it is safe for
// concurrent use.
type Server struct {
	mux       *http.ServeMux
	reg       *scream.ObsRegistry
	max       int
	version   string
	scenarios map[string]*scenario
	names     []string

	traceBytes int // per-session ring budget; <0 disables capture

	mu        sync.Mutex
	sessions  map[int64]*session
	done      map[int64]*session // finished sessions retained for /trace
	doneOrder []int64            // eviction order for done, oldest first
	nextID    int64
	draining  bool

	mStarted   *obs.Counter
	mCompleted *obs.Counter
	mFailed    *obs.Counter
	mRejected  *obs.Counter
	mEpochs    *obs.Counter
	mActive    *obs.Gauge
	mDuration  *obs.Histogram
}

// New builds a Server, constructing the meshes of every preloaded scenario.
func New(cfg Config) (*Server, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = scream.NewObsRegistry()
	}
	max := cfg.MaxSessions
	if max <= 0 {
		max = DefaultMaxSessions
	}
	version := cfg.Version
	if version == "" {
		version = "dev"
	}
	s := &Server{
		reg:        reg,
		max:        max,
		version:    version,
		traceBytes: cfg.TraceBytes,
		scenarios:  make(map[string]*scenario),
		sessions:   make(map[int64]*session),
		done:       make(map[int64]*session),

		mStarted:   reg.Counter("scream_serve_sessions_started_total", "simulation sessions admitted"),
		mCompleted: reg.Counter("scream_serve_sessions_completed_total", "sessions that ran to their horizon"),
		mFailed:    reg.Counter("scream_serve_sessions_failed_total", "sessions that ended in an error (including cancellation)"),
		mRejected:  reg.Counter("scream_serve_sessions_rejected_total", "run requests refused at the admission cap"),
		mEpochs:    reg.Counter("scream_serve_epochs_streamed_total", "epoch events streamed to clients"),
		mActive:    reg.Gauge("scream_serve_sessions_active", "currently running sessions"),
		mDuration: reg.Histogram("scream_serve_session_duration_seconds",
			"wall-clock duration of finished sessions (completed or failed)",
			[]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60, 300, 1800, 3600}),
	}
	for _, spec := range cfg.Scenarios {
		if spec.Name == "" {
			return nil, fmt.Errorf("serve: preloaded scenario without a name")
		}
		if _, dup := s.scenarios[spec.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate scenario %q", spec.Name)
		}
		mesh, err := spec.Mesh()
		if err != nil {
			return nil, fmt.Errorf("serve: scenario %q: %w", spec.Name, err)
		}
		s.scenarios[spec.Name] = &scenario{spec: spec.Clone(), mesh: mesh}
		s.names = append(s.names, spec.Name)
	}
	sort.Strings(s.names)

	mux := http.NewServeMux()
	o := obs.Handler(reg)
	mux.Handle("/metrics", o)
	mux.Handle("/debug/pprof/", o)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/version", s.handleVersion)
	mux.HandleFunc("/api/v1/schedulers", s.handleSchedulers)
	mux.HandleFunc("/api/v1/engines", s.handleEngines)
	mux.HandleFunc("/api/v1/scenarios", s.handleScenarios)
	mux.HandleFunc("/api/v1/sessions", s.handleSessions)
	mux.HandleFunc("GET /api/v1/sessions/{id}/trace", s.handleSessionTrace)
	mux.HandleFunc("GET /api/v1/metrics", s.handleMetricsJSON)
	mux.HandleFunc("/api/v1/run", s.handleRun)
	s.mux = mux
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// CancelSessions aborts every running session (their streams end with an
// error event) and refuses new admissions. It is the forced half of a
// graceful shutdown: call it when http.Server.Shutdown exceeds the drain
// budget, then Close the listener.
func (s *Server) CancelSessions() {
	s.mu.Lock()
	s.draining = true
	cancels := make([]context.CancelFunc, 0, len(s.sessions))
	for _, sess := range s.sessions {
		cancels = append(cancels, sess.cancel)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// admit registers a session under the admission cap. name is the spec's
// name, shown in the session listing; scenario is its metric label. ok is
// false when the server is at capacity or draining.
func (s *Server) admit(name, scenario, scheduler string, cancel context.CancelFunc) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || len(s.sessions) >= s.max {
		s.mRejected.Inc()
		return nil, false
	}
	s.nextID++
	sess := &session{
		id:        s.nextID,
		name:      name,
		scenario:  scenario,
		scheduler: scheduler,
		started:   time.Now(),
		cancel:    cancel,
	}
	if s.traceBytes >= 0 {
		sess.sink = obs.NewRingSink(s.traceBytes)
	}
	s.sessions[sess.id] = sess
	s.mStarted.Inc()
	s.mActive.Set(int64(len(s.sessions)))
	return sess, true
}

// release unregisters a finished session, retaining its trace capture (when
// enabled) so /api/v1/sessions/{id}/trace keeps working after the stream
// ends. The retention set is bounded: beyond doneRetention finished
// sessions, the oldest capture is evicted.
func (s *Server) release(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, sess.id)
	s.mActive.Set(int64(len(s.sessions)))
	if sess.sink == nil {
		return
	}
	s.done[sess.id] = sess
	s.doneOrder = append(s.doneOrder, sess.id)
	for len(s.doneOrder) > doneRetention {
		delete(s.done, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"version": s.version})
}

// handleSchedulers serves the public scheduler registry.
func (s *Server) handleSchedulers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, scream.Schedulers())
}

// handleEngines serves the public interference-engine registry — the same
// table ScenarioSpec.Interference and flowsim -engine resolve against.
func (s *Server) handleEngines(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, scream.Engines())
}

// handleScenarios lists the preloaded scenarios with their full specs.
func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	out := make([]scream.ScenarioSpec, 0, len(s.names))
	for _, name := range s.names {
		out = append(out, s.scenarios[name].spec.Clone())
	}
	writeJSON(w, http.StatusOK, out)
}

// sessionInfo is the /api/v1/sessions wire shape.
type sessionInfo struct {
	ID        int64     `json:"id"`
	Name      string    `json:"name,omitempty"`
	Scheduler string    `json:"scheduler"`
	StartedAt time.Time `json:"started_at"`
	Epochs    int64     `json:"epochs"`
}

func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]sessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sessionInfo{
			ID:        sess.id,
			Name:      sess.name,
			Scheduler: sess.scheduler,
			StartedAt: sess.started,
			Epochs:    sess.epochs.Load(),
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

// maxSpecBytes bounds a POSTed scenario document.
const maxSpecBytes = 1 << 20

// handleRun admits, runs and streams one session.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a scenario spec (or ?scenario=<name>) to run")
		return
	}
	// Only preloaded scenarios name a metric series. A POSTed body's name is
	// the tenant's to choose, so it is labeled "adhoc": otherwise a tenant
	// could mint one series per name, or count its runs in a preloaded
	// scenario's series.
	var (
		spec  scream.ScenarioSpec
		mesh  *scream.Mesh
		label = "adhoc"
	)
	if name := r.URL.Query().Get("scenario"); name != "" {
		sc, ok := s.scenarios[name]
		if !ok {
			writeError(w, http.StatusNotFound,
				fmt.Sprintf("unknown scenario %q (preloaded: %s)", name, strings.Join(s.names, ", ")))
			return
		}
		// The shared prebuilt deployment, as is: RunWith only reads the spec
		// and the mesh, and clones the network when dynamics mutate it.
		spec, mesh, label = sc.spec, sc.mesh, name
	} else {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("read scenario: %v", err))
			return
		}
		spec, err = scream.ParseScenario(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}

	// The session context: canceled when the client goes away, when the
	// handler returns, or when CancelSessions force-drains the server.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	sess, ok := s.admit(spec.Name, label, spec.SchedulerName(), cancel)
	if !ok {
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("session limit reached (%d active)", s.max))
		return
	}
	defer s.release(sess)

	// Per-session trace capture: the run's v2 span trace lands in the
	// session's bounded ring, flushed after every epoch so a live GET on the
	// trace endpoint sees whole epochs, never a torn line.
	var tr *scream.ObsTracer
	if sess.sink != nil {
		tr = scream.NewObsTracer(sess.sink)
	}

	st := newStream(w, r)
	st.send(startEvent{Type: "start", Session: sess.id, Name: spec.Name,
		Scheduler: spec.SchedulerName(), Spec: &spec})
	res, err := runSession(ctx, spec, scream.RunOptions{
		Mesh:    mesh,
		Metrics: s.reg,
		Trace:   tr,
		OnEpoch: func(u scream.EpochUpdate) {
			sess.epochs.Add(1)
			s.mEpochs.Inc()
			tr.Flush()
			st.send(epochEvent{Type: "epoch", Session: sess.id, EpochUpdate: u})
		},
	})
	tr.Flush()
	s.mDuration.Observe(time.Since(sess.started).Seconds())
	if err != nil {
		s.mFailed.Inc()
		s.outcomeCounter(sess.scenario, "failed").Inc()
		st.send(errorEvent{Type: "error", Session: sess.id, Error: err.Error()})
		return
	}
	s.mCompleted.Inc()
	s.outcomeCounter(sess.scenario, "completed").Inc()
	st.send(resultEvent{Type: "result", Session: sess.id, Result: res})
}

// runSession is scream.RunWith with a panic in the run, or in its epoch
// stream, returned as an error: the session then ends with an error event
// and counts as failed, and the server keeps serving the others.
func runSession(ctx context.Context, spec scream.ScenarioSpec, o scream.RunOptions) (res *scream.FlowResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("session panicked: %v", p)
		}
	}()
	return scream.RunWith(ctx, spec, o)
}

// outcomeCounter is the per-scenario session counter for one outcome. The
// label pair is embedded in the metric name (the registry's flat model), so
// each (scenario, outcome) combination is its own monotone series.
func (s *Server) outcomeCounter(scenario, outcome string) *obs.Counter {
	return s.reg.Counter(
		"scream_serve_scenario_sessions_total"+obs.Labels("scenario", scenario, "outcome", outcome),
		"finished sessions by scenario and outcome (completed|failed)")
}

// handleSessionTrace serves a session's captured trace as whole-line JSONL:
// a live (partial) snapshot while the session runs, the retained tail after
// it finishes. X-Scream-Trace-Dropped reports ring evictions — nonzero means
// the trace is a suffix and offline validation will flag the missing head.
func (s *Server) handleSessionTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad session id %q", r.PathValue("id")))
		return
	}
	s.mu.Lock()
	sess := s.sessions[id]
	if sess == nil {
		sess = s.done[id]
	}
	s.mu.Unlock()
	if sess == nil || sess.sink == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no captured trace for session %d", id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Scream-Trace-Dropped", strconv.FormatInt(sess.sink.Dropped(), 10))
	w.Write(sess.sink.Snapshot())
}

// handleMetricsJSON serves the registry as a JSON snapshot — the
// machine-readable twin of the /metrics text exposition.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.reg.WriteJSON(w)
}

// Streamed event shapes. Every line/event is one self-describing JSON object
// with a "type" discriminator.
type startEvent struct {
	Type      string               `json:"type"`
	Session   int64                `json:"session"`
	Name      string               `json:"name,omitempty"`
	Scheduler string               `json:"scheduler"`
	Spec      *scream.ScenarioSpec `json:"spec"`
}

type epochEvent struct {
	Type    string `json:"type"`
	Session int64  `json:"session"`
	scream.EpochUpdate
}

type resultEvent struct {
	Type    string             `json:"type"`
	Session int64              `json:"session"`
	Result  *scream.FlowResult `json:"result"`
}

type errorEvent struct {
	Type    string `json:"type"`
	Session int64  `json:"session"`
	Error   string `json:"error"`
}

// stream writes the run's event sequence, flushing after every event so
// clients see epochs as they happen: newline-delimited JSON by default,
// server-sent events when the client asked for text/event-stream.
type stream struct {
	w   http.ResponseWriter
	fl  http.Flusher
	sse bool
}

func newStream(w http.ResponseWriter, r *http.Request) *stream {
	st := &stream{w: w}
	st.fl, _ = w.(http.Flusher)
	st.sse = strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if st.sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	st.flush()
	return st
}

func (st *stream) send(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Event shapes are our own structs; a marshal failure is a
		// programming error, and mid-stream there is no status to change.
		return
	}
	if st.sse {
		fmt.Fprintf(st.w, "data: %s\n\n", data)
	} else {
		st.w.Write(data)
		io.WriteString(st.w, "\n")
	}
	st.flush()
}

func (st *stream) flush() {
	if st.fl != nil {
		st.fl.Flush()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
