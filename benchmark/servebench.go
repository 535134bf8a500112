package main

// The serve-golden workload: scenario bodies POSTed as NDJSON sessions to
// serve.New(serve.Config{}) behind httptest.NewServer, over loopback TCP.
// Load is a closed loop of two clients, each on its own connection and each
// sending its next session only when the previous one has ended, so there
// is no schedule a slow server could fall behind.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"scream"
	"scream/internal/flow"
	"scream/internal/serve"
)

const serveClients = 2

// session is one client-side observation of a POST through to its result.
type session struct {
	body      int
	run, ttfb float64
	events    int
	err       error
}

// serveLoad is the fixed input of a serve pass: one body and one in-process
// reference result per seed.
type serveLoad struct {
	bodies [][]byte
	refs   []*flow.Result
}

// newServeLoad marshals every spec and runs it in process for its reference
// result. Probes first run through the streaming gate, which their
// reference must equal.
func newServeLoad(r *report, specs []scream.ScenarioSpec, p plan) (*serveLoad, bool) {
	l := &serveLoad{}
	for i, spec := range specs {
		body, err := json.Marshal(spec)
		if !r.check(err, "marshal spec") {
			return nil, false
		}
		var gate *flow.Result
		if i < p.probes {
			if gate = gateRun(r, spec); gate == nil {
				return nil, false
			}
		}
		res, _ := runChecked(r, spec, gate, nil)
		if res == nil {
			return nil, false
		}
		l.bodies = append(l.bodies, body)
		l.refs = append(l.refs, res)
	}
	return l, true
}

// closedLoop sends n sessions, cycling through the bodies, from serveClients
// clients. Clients stop early once end has passed.
func (l *serveLoad) closedLoop(url string, n int, end deadline) (out []session, elapsed time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			var local []session
			for {
				i := int(next.Add(1) - 1)
				if i >= n || time.Now().After(time.Time(end)) {
					break
				}
				k := i % len(l.bodies)
				s := postSession(client, url, l.bodies[k], l.refs[k])
				s.body = k
				local = append(local, s)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

var (
	resultPrefix = []byte(`{"type":"result"`)
	errorPrefix  = []byte(`{"type":"error"`)
)

// postSession runs one session and checks that its streamed result equals
// the in-process run of the same body.
func postSession(client *http.Client, url string, body []byte, ref *flow.Result) session {
	t0 := time.Now()
	resp, err := client.Post(url+"/api/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return session{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return session{err: fmt.Errorf("status %s", resp.Status)}
	}
	s := session{err: fmt.Errorf("stream ended without a result event")}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			s.events++
			if s.events == 1 {
				s.ttfb = time.Since(t0).Seconds()
			}
			switch {
			case bytes.HasPrefix(line, resultPrefix):
				s.run = time.Since(t0).Seconds()
				var ev struct {
					Result *flow.Result `json:"result"`
				}
				if derr := json.Unmarshal(line, &ev); derr != nil {
					s.err = derr
				} else if !reflect.DeepEqual(ev.Result, ref) {
					s.err = fmt.Errorf("streamed result differs from the in-process run")
				} else {
					s.err = nil
				}
			case bytes.HasPrefix(line, errorPrefix):
				s.err = fmt.Errorf("error event: %s", bytes.TrimSpace(line))
			}
		}
		if err == io.EOF {
			return s
		}
		if err != nil {
			s.err = err
			return s
		}
	}
}

// tallySessions records sessions into r and returns the run and ttfb samples of
// the successful ones.
func tallySessions(r *report, ss []session) (runs, ttfb []float64, events int) {
	for _, s := range ss {
		r.attempted++
		if s.err != nil {
			r.fail("session: %v", s.err)
			continue
		}
		runs = append(runs, s.run)
		ttfb = append(ttfb, s.ttfb)
		events += s.events
	}
	return runs, ttfb, events
}

// serveTimed runs the closed loop through the bodies a fixed number of
// rounds. run_s_p50 is the median over the bodies of each one's fastest
// session; ttfb_s_p50, a fraction of a millisecond that the fastest of a
// few sessions would leave to chance, is the median over all sessions;
// setup_s the median over the probes of each one's fastest build.
func serveTimed(w workload, specs []scream.ScenarioSpec, p plan) *report {
	r := newReport(w.name, false)
	if !meshHeap(r, specs[0]) {
		return r
	}
	load, ok := newServeLoad(r, specs, p)
	if !ok {
		return r
	}
	srv, err := serve.New(serve.Config{})
	if !r.check(err, "serve.New") {
		return r
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	end := p.start()
	if p.warmup > 0 {
		warm, _ := load.closedLoop(ts.URL, len(specs), end)
		tallySessions(r, warm)
	}

	// Between rounds through the bodies, every probe builds its mesh once.
	setup := make(fastest, p.probes)
	var (
		mem allocCounter
		ss  []session
	)
	for k := 0; k < p.repeats(w) && !end.passed(r); k++ {
		mem.resume()
		round, _ := load.closedLoop(ts.URL, len(specs), end)
		mem.pause(len(round))
		ss = append(ss, round...)
		for j, spec := range specs[:p.probes] {
			d, err := timeBuild(meshBuild(spec))
			if !r.check(err, "setup") {
				return r
			}
			setup.add(j, d)
		}
	}
	if want := p.repeats(w) * len(specs); len(ss) < want {
		r.fail("%d of %d sessions sent before the time limit", len(ss), want)
	}
	run := make(fastest, len(specs))
	for _, s := range ss {
		if s.err == nil {
			run.add(s.body, s.run)
		}
	}
	_, ttfb, _ := tallySessions(r, ss)

	goodput := make([]float64, len(load.refs))
	for i, ref := range load.refs {
		goodput[i] = ref.GoodputPps
	}
	r.samples = mem.units
	r.set("setup_s", setup.median())
	r.set("run_s_p50", run.median())
	r.set("allocs_per_run", mem.perUnit(mem.mallocs))
	r.set("bytes_per_run", mem.perUnit(mem.bytes))
	r.set("goodput_pps", mean(goodput))
	r.set("ttfb_s_p50", median(ttfb))
	return r
}

// writeStats accumulates the time the server spends in Write and Flush on
// the session stream.
type writeStats struct {
	ns, writes, bytes atomic.Int64
}

// timedWriter is the traced pass's middleware: an http.ResponseWriter that
// times every Write and Flush of the wrapped one.
type timedWriter struct {
	http.ResponseWriter
	st *writeStats
}

func (t timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.ResponseWriter.Write(p)
	t.st.ns.Add(int64(time.Since(t0)))
	t.st.writes.Add(1)
	t.st.bytes.Add(int64(n))
	return n, err
}

func (t timedWriter) Flush() {
	t0 := time.Now()
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	t.st.ns.Add(int64(time.Since(t0)))
}

// serveTraced alternates untraced and traced rounds of the closed loop, then
// times the in-process half of a session — parsing the body and scream.Run —
// next to the traced replica of the same run.
func serveTraced(w workload, specs []scream.ScenarioSpec, p plan) (*report, *recorder) {
	r := newReport(w.name, true)
	rep := newReplica()
	load, ok := newServeLoad(r, specs, p)
	if !ok {
		return r, nil
	}
	srv, err := serve.New(serve.Config{})
	if !r.check(err, "serve.New") {
		return r, nil
	}
	var (
		tracing atomic.Bool
		st      writeStats
	)
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if tracing.Load() {
			rw = timedWriter{ResponseWriter: rw, st: &st}
		}
		srv.ServeHTTP(rw, req)
	}))
	defer ts.Close()
	end := p.start()
	if p.warmup > 0 {
		warm, _ := load.closedLoop(ts.URL, len(specs), end)
		tallySessions(r, warm)
	}

	var mem memDelta
	mem.start()
	var plain, traced []float64
	var tracedEvents int
	var plainTime time.Duration
	for phase := 0; phase < 4; phase++ {
		tracing.Store(phase%2 == 1)
		ss, elapsed := load.closedLoop(ts.URL, len(specs), end)
		runs, _, events := tallySessions(r, ss)
		if phase%2 == 1 {
			traced = append(traced, runs...)
			tracedEvents += events
		} else {
			plain = append(plain, runs...)
			plainTime += elapsed
		}
	}

	var parse, inproc []float64
	for i, spec := range specs {
		t0 := time.Now()
		_, err := scream.ParseScenario(load.bodies[i])
		parse = append(parse, time.Since(t0).Seconds())
		r.check(err, "parse")
		_, d := runChecked(r, spec, load.refs[i], nil)
		inproc = append(inproc, d.Seconds())
		r.attempted++
		got, err := rep.run(spec)
		if r.check(err, fmt.Sprintf("replica seed %d", spec.Seed)) && !reflect.DeepEqual(got, load.refs[i]) {
			r.fail("seed %d: traced replica result differs from scream.Run", spec.Seed)
		}
		if end.passed(r) {
			break
		}
	}
	mem.stop()

	r.samples = len(plain) + len(traced)
	units := float64(len(plain) + len(traced) + 2*len(inproc))
	r.set("runtime.gc_per_run", mem.gcs()/units)
	r.set("runtime.gc_pause_s_per_run", mem.pause()/units)
	layerMetrics(r, rep)
	plainP50, inprocP50 := median(plain), median(inproc)
	per := func(x float64) float64 { return ratio(x, float64(len(traced))) }
	r.set("serve.inproc_s_p50", inprocP50)
	r.set("serve.overhead_s", plainP50-inprocP50)
	r.set("serve.parse_s", mean(parse))
	r.set("serve.write_s", per(float64(st.ns.Load())/1e9))
	r.set("serve.writes", per(float64(st.writes.Load())))
	r.set("serve.bytes", per(float64(st.bytes.Load())))
	r.set("serve.events", per(float64(tracedEvents)))
	r.set("e2e.runs_per_s", ratio(float64(len(plain)), plainTime.Seconds()))
	r.set("e2e.run_s_p90", percentile(plain, 90))
	r.set("trace.overhead_frac", ratio(median(traced), plainP50)-1)
	return r, rep.rec
}
