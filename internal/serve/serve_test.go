package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"scream"
	"scream/internal/obs"
	"scream/internal/tracecheck"
)

func testSpec(seed int64) scream.ScenarioSpec {
	return scream.ScenarioSpec{
		Name:           fmt.Sprintf("grid-seed-%d", seed),
		Topology:       scream.TopologySpec{Kind: "grid", Rows: 4, Cols: 4, StepMeters: 30},
		Traffic:        scream.TrafficSpec{Kind: "poisson", Load: 0.5},
		Scheduler:      "greedy",
		HorizonSec:     0.3,
		Seed:           seed,
		FramesPerEpoch: 8,
		MaxService:     8,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// event is the union of the streamed event shapes, for decoding.
type event struct {
	Type    string             `json:"type"`
	Session int64              `json:"session"`
	Epoch   int                `json:"epoch"`
	Error   string             `json:"error"`
	Result  *scream.FlowResult `json:"result"`
}

// postRun POSTs a spec and decodes the full NDJSON event stream.
func postRun(t *testing.T, base string, spec scream.ScenarioSpec) []event {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/api/v1/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("run: content type %q", ct)
	}
	return decodeStream(t, resp)
}

func decodeStream(t *testing.T, resp *http.Response) []event {
	t.Helper()
	var events []event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func TestEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Scenarios: []scream.ScenarioSpec{testSpec(7)}, Version: "test-1"})

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			sb.WriteString(sc.Text() + "\n")
		}
		return resp, sb.String()
	}

	if resp, body := get("/healthz"); resp.StatusCode != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
	if _, body := get("/version"); !strings.Contains(body, "test-1") {
		t.Errorf("version: %q", body)
	}

	_, body := get("/api/v1/schedulers")
	var infos []scream.SchedulerInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatalf("schedulers: %v", err)
	}
	if len(infos) != len(scream.Schedulers()) {
		t.Errorf("schedulers: %d entries, want %d", len(infos), len(scream.Schedulers()))
	}

	_, body = get("/api/v1/engines")
	var engines []scream.EngineInfo
	if err := json.Unmarshal([]byte(body), &engines); err != nil {
		t.Fatalf("engines: %v", err)
	}
	if len(engines) != len(scream.Engines()) || engines[0].Name != scream.EngineDense {
		t.Errorf("engines: %+v", engines)
	}

	_, body = get("/api/v1/scenarios")
	var specs []scream.ScenarioSpec
	if err := json.Unmarshal([]byte(body), &specs); err != nil {
		t.Fatalf("scenarios: %v", err)
	}
	if len(specs) != 1 || specs[0].Name != "grid-seed-7" {
		t.Errorf("scenarios: %+v", specs)
	}

	if _, body = get("/api/v1/sessions"); strings.TrimSpace(body) != "[]" {
		t.Errorf("sessions: %q", body)
	}
}

// TestRunStream checks the event protocol and the core API contract: the
// result streamed by the daemon is exactly the result scream.Run produces
// in-process for the same spec.
func TestRunStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := testSpec(7)
	events := postRun(t, ts.URL, spec)
	if len(events) < 3 {
		t.Fatalf("stream too short: %+v", events)
	}
	if events[0].Type != "start" {
		t.Fatalf("first event %q, want start", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != "result" || last.Result == nil {
		t.Fatalf("last event %+v, want result", last)
	}
	epochs := 0
	for _, ev := range events[1 : len(events)-1] {
		if ev.Type != "epoch" {
			t.Fatalf("mid-stream event %q, want epoch", ev.Type)
		}
		epochs++
	}
	if epochs != last.Result.Epochs {
		t.Errorf("streamed %d epoch events, result says %d epochs", epochs, last.Result.Epochs)
	}

	want, err := scream.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(last.Result, want) {
		t.Errorf("daemon result differs from in-process Run:\n got %+v\nwant %+v", last.Result, want)
	}
}

// TestRunPreloadedScenario runs a preloaded scenario by name twice: both
// sessions run on clones of the shared mesh and must equal the in-process
// result.
func TestRunPreloadedScenario(t *testing.T) {
	spec := testSpec(7)
	_, ts := newTestServer(t, Config{Scenarios: []scream.ScenarioSpec{spec}})
	want, err := scream.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/api/v1/run?scenario=grid-seed-7", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		events := decodeStream(t, resp)
		resp.Body.Close()
		last := events[len(events)-1]
		if last.Type != "result" || !reflect.DeepEqual(last.Result, want) {
			t.Fatalf("preloaded run %d: %+v, want result %+v", i, last, want)
		}
	}
	resp, err := http.Post(ts.URL+"/api/v1/run?scenario=nope", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown scenario: status %d, want 404", resp.StatusCode)
	}
}

// TestRunSSE asks for server-sent events and checks the framing.
func TestRunSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(testSpec(3))
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/run", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var dataLines int
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("non-SSE line %q", line)
		}
		dataLines++
	}
	if dataLines < 3 {
		t.Fatalf("only %d SSE events", dataLines)
	}
}

// TestConcurrentSessionIsolation runs two sessions with different seeds at
// the same time (plus -race underneath in CI): each must produce exactly the
// result of a standalone in-process run — no shared mutable state.
func TestConcurrentSessionIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 4})
	seeds := []int64{7, 11}
	want := make([]*scream.FlowResult, len(seeds))
	for i, seed := range seeds {
		var err error
		want[i], err = scream.Run(context.Background(), testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*scream.FlowResult, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			events := postRun(t, ts.URL, testSpec(seed))
			if last := events[len(events)-1]; last.Type == "result" {
				got[i] = last.Result
			}
		}()
	}
	wg.Wait()
	for i := range seeds {
		if got[i] == nil {
			t.Fatalf("session %d produced no result", i)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("seed %d: concurrent session diverged from standalone run:\n got %+v\nwant %+v",
				seeds[i], got[i], want[i])
		}
	}
}

// longSpec is a run that takes long enough (in wall clock) to still be
// active when the test pokes at the server; it ends promptly on cancel.
func longSpec() scream.ScenarioSpec {
	s := testSpec(1)
	s.Name = "long"
	s.HorizonSec = 3600
	return s
}

// waitActive polls until n sessions are running.
func waitActive(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.ActiveSessions() != n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d active sessions (now %d)", n, s.ActiveSessions())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionCap: with MaxSessions=1, a second run is refused with 429 and
// counted as rejected; after the first finishes, admission reopens.
func TestAdmissionCap(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 1})

	done := make(chan []event, 1)
	go func() {
		body, _ := json.Marshal(longSpec())
		resp, err := http.Post(ts.URL+"/api/v1/run", "application/json", strings.NewReader(string(body)))
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		done <- decodeStream(t, resp)
	}()
	waitActive(t, s, 1)

	body, _ := json.Marshal(testSpec(2))
	resp, err := http.Post(ts.URL+"/api/v1/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap run: status %d, want 429", resp.StatusCode)
	}
	if v, _ := s.reg.CounterValue("scream_serve_sessions_rejected_total"); v != 1 {
		t.Errorf("rejected counter %d, want 1", v)
	}

	// Cancel the hog; its stream must end with an error event, and the slot
	// must free up.
	s.CancelSessions()
	events := <-done
	if events == nil {
		t.Fatal("long session failed to stream")
	}
	last := events[len(events)-1]
	if last.Type != "error" || !strings.Contains(last.Error, "canceled") {
		t.Fatalf("canceled session ended with %+v, want error event", last)
	}
	waitActive(t, s, 0)
}

// TestDrainRefusesNewSessions: after CancelSessions the server refuses all
// admissions (the forced-drain half of graceful shutdown).
func TestDrainRefusesNewSessions(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 4})
	s.CancelSessions()
	body, _ := json.Marshal(testSpec(2))
	resp, err := http.Post(ts.URL+"/api/v1/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("draining server admitted a session: status %d", resp.StatusCode)
	}
}

// TestRunRejectsBadSpecs: malformed and invalid documents get 400 before any
// stream starts; GET is 405.
func TestRunRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		"{not json",
		`{"horizon_secs": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30}, "traffic": {"kind": "poisson", "load": 0.5}, "scheduler": "astrology", "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30}, "traffic": {"kind": "poisson", "load": 0.5}, "scheduler": "maxweight", "channels": 2, "horizon_sec": 1}`,
		// Specs whose fault needs no mesh to find: rejected before a session
		// starts, not reported in a 200 stream.
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30, "gateways": [999]}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30, "gateways": [-1]}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30, "demand_lo": 5, "demand_hi": 3}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30}, "traffic": {"kind": "zipf", "load": 0.5, "zipf_s": 1}, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30}, "traffic": {"kind": "poisson", "load": 0.5}, "scheduler": "fdd", "k": -1, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 1, "cols": 1, "step_m": 30}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
		`{"topology": {"kind": "uniform", "nodes": 2, "side_m": 50}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30}, "traffic": {"kind": "bursty", "load": 0.5, "peak_factor": -1}, "horizon_sec": 1}`,
		// Power and radio fields with no finite, positive linear value, or
		// out of range.
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30, "radio": {"beta_db": 12}}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30, "radio": {"path_loss_exponent": 3, "noise_dbm": -1e308}}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30, "radio": {"path_loss_exponent": 3, "ref_loss_db": -1e308}}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30, "radio": {"path_loss_exponent": 3, "beta_db": 1e308}}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30, "tx_dbm": 1e308}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30, "tx_dbm": -1e308}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30, "radio": {"cs_threshold_dbm": 1e308}}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30, "radio": {"num_radios": -2}}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_m": 30, "radio": {"path_loss_exponent": 3, "shadow_sigma_db": -3}}, "traffic": {"kind": "poisson", "load": 0.5}, "horizon_sec": 1}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/api/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET run: status %d, want 405", resp.StatusCode)
	}
}

// TestMetricsExposition: after a run, /metrics carries both the daemon's
// serve_* session counters and the simulation's flow_* counters — one
// registry across layers.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postRun(t, ts.URL, testSpec(7))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text() + "\n")
	}
	body := sb.String()
	for _, want := range []string{
		"scream_serve_sessions_started_total 1",
		"scream_serve_sessions_completed_total 1",
		"scream_serve_sessions_active 0",
		"scream_serve_epochs_streamed_total",
		"scream_flow_offered_total",
		"scream_flow_delivered_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSessionTraceCapture: a finished session's captured trace is fetchable
// over HTTP as schema-v2 JSONL and replays clean through the offline
// validator — the full daemon-side loop of the trace toolchain.
func TestSessionTraceCapture(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	events := postRun(t, ts.URL, testSpec(7))
	id := events[0].Session

	resp, err := http.Get(fmt.Sprintf("%s/api/v1/sessions/%d/trace", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace content type %q", ct)
	}
	if d := resp.Header.Get("X-Scream-Trace-Dropped"); d != "0" {
		t.Errorf("trace dropped lines %q, want 0", d)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(body, []byte(`{"v":2,"ev":"span_begin"`)) {
		t.Fatalf("trace does not start with a v2 run span: %.80s", body)
	}
	trace, err := tracecheck.Parse(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if vs := tracecheck.Validate(trace); len(vs) > 0 {
		t.Fatalf("captured trace violates invariants: %v", vs)
	}

	for path, want := range map[string]int{
		"/api/v1/sessions/99999/trace": http.StatusNotFound,
		"/api/v1/sessions/bogus/trace": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestSessionTraceDisabled: TraceBytes < 0 turns capture off; the endpoint
// 404s even for a session that just ran.
func TestSessionTraceDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceBytes: -1})
	events := postRun(t, ts.URL, testSpec(7))
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/sessions/%d/trace", ts.URL, events[0].Session))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled capture served status %d, want 404", resp.StatusCode)
	}
}

// TestSessionTraceLive: the trace endpoint answers while the session is
// still running — a whole-line snapshot of everything flushed so far.
func TestSessionTraceLive(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(longSpec())
		resp, err := http.Post(ts.URL+"/api/v1/run", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return
		}
		decodeStream(t, resp)
		resp.Body.Close()
	}()
	waitActive(t, s, 1)
	resp, err := http.Get(ts.URL + "/api/v1/sessions/1/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live trace: status %d", resp.StatusCode)
	}
	// Whatever is flushed so far must be whole lines (possibly none yet).
	if len(body) > 0 && body[len(body)-1] != '\n' {
		t.Error("live snapshot ends mid-line")
	}
	s.CancelSessions()
	<-done
}

// TestTraceRetention: finished sessions keep their traces fetchable up to
// doneRetention; beyond that the oldest capture is evicted.
func TestTraceRetention(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := testSpec(7)
	spec.HorizonSec = 0.05
	for i := 0; i < doneRetention+2; i++ {
		postRun(t, ts.URL, spec)
	}
	s.mu.Lock()
	retained := len(s.done)
	s.mu.Unlock()
	if retained != doneRetention {
		t.Fatalf("retained %d finished sessions, want %d", retained, doneRetention)
	}
	resp, err := http.Get(ts.URL + "/api/v1/sessions/1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted session trace: status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsJSONEndpoint: /api/v1/metrics is the JSON twin of /metrics —
// after one run it carries the serve counters, the session duration
// histogram, and the scenario-labeled outcome series.
func TestMetricsJSONEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postRun(t, ts.URL, testSpec(7))
	resp, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("metrics content type %q", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["scream_serve_sessions_completed_total"]; got != 1 {
		t.Errorf("completed counter %d, want 1", got)
	}
	if got := snap.Counters[`scream_serve_scenario_sessions_total{scenario="grid-seed-7",outcome="completed"}`]; got != 1 {
		t.Errorf("scenario-labeled counter %d, want 1", got)
	}
	h, ok := snap.Histograms["scream_serve_session_duration_seconds"]
	if !ok || h.Count != 1 {
		t.Errorf("duration histogram %+v (present %v), want count 1", h, ok)
	}
	if len(h.Buckets) == 0 || h.Buckets[len(h.Buckets)-1].LE != "+Inf" {
		t.Errorf("duration histogram buckets %+v, want trailing +Inf", h.Buckets)
	}
}

// TestScenarioOutcomeMetrics: the labeled session counters attribute runs to
// their scenario — "adhoc" for unnamed POSTed specs — and canceled runs land
// in outcome="failed".
func TestScenarioOutcomeMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	adhoc := testSpec(3)
	adhoc.Name = ""
	postRun(t, ts.URL, adhoc)

	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(longSpec())
		resp, err := http.Post(ts.URL+"/api/v1/run", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return
		}
		decodeStream(t, resp)
		resp.Body.Close()
	}()
	waitActive(t, s, 1)
	s.CancelSessions()
	<-done

	for name, want := range map[string]int64{
		`scream_serve_scenario_sessions_total{scenario="adhoc",outcome="completed"}`: 1,
		`scream_serve_scenario_sessions_total{scenario="long",outcome="failed"}`:     1,
	} {
		if got, _ := s.reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	h, ok := s.reg.HistogramValue("scream_serve_session_duration_seconds")
	if !ok || h.Count() != 2 {
		t.Errorf("duration histogram count %v (present %v), want 2", h, ok)
	}
}

// TestSessionListing: a running session shows up on /api/v1/sessions with
// its name and scheduler.
func TestSessionListing(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 2})
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(longSpec())
		resp, err := http.Post(ts.URL+"/api/v1/run", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return
		}
		decodeStream(t, resp)
		resp.Body.Close()
	}()
	waitActive(t, s, 1)
	resp, err := http.Get(ts.URL + "/api/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var infos []sessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "long" || infos[0].Scheduler != "greedy" {
		t.Fatalf("sessions listing %+v", infos)
	}
	s.CancelSessions()
	<-done
}
