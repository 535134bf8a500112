package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one traced unit share Trace; Parent 0 marks the
// unit's root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Leaf holds the counts of the primitives called inside the span
	// (core.run spans only).
	Leaf *leafCounts `json:"leaf,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// leafCounts are the protocol primitives one core.Run executed. Every call
// is counted, every sampleEvery-th call is timed, and the *_ns fields hold
// the sampled time scaled up to all calls.
type leafCounts struct {
	Screams     int   `json:"screams"`
	ScreamNs    int64 `json:"scream_ns"`
	Handshakes  int   `json:"handshakes"`
	HandshakeNs int64 `json:"handshake_ns"`
	Links       int   `json:"links"`
	OK          int   `json:"ok"`
}

// recorder keeps spans in memory until the benchmark ends.
type recorder struct {
	base   time.Time
	spans  []span
	traces int
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// newTrace starts a unit and returns its root span.
func (r *recorder) newTrace(name string) int {
	r.traces++
	return r.begin(name, 0)
}

func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{Trace: r.traces, ID: len(r.spans) + 1, Parent: parent, Name: name, Start: r.now()})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].End = r.now() }

func (r *recorder) get(id int) *span { return &r.spans[id-1] }

// layerTimes is the per-name aggregate of a span set: total duration, self
// time (duration minus the part covered by child spans) and count.
type layerTimes struct {
	total, self map[string]float64
	count       map[string]int
	durs        map[string][]float64
}

func (r *recorder) aggregate() layerTimes {
	children := make([]int64, len(r.spans)+1)
	for i := range r.spans {
		if p := r.spans[i].Parent; p > 0 {
			children[p] += r.spans[i].dur()
		}
	}
	lt := layerTimes{total: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}, durs: map[string][]float64{}}
	for i := range r.spans {
		s := &r.spans[i]
		d := float64(s.dur()) / 1e9
		self := float64(s.dur()-children[s.ID]) / 1e9
		if s.Leaf != nil {
			self -= float64(s.Leaf.ScreamNs+s.Leaf.HandshakeNs) / 1e9
		}
		lt.total[s.Name] += d
		lt.self[s.Name] += self
		lt.count[s.Name]++
		lt.durs[s.Name] = append(lt.durs[s.Name], d)
	}
	return lt
}

// writeJSONL writes the spans to w, one JSON object per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
