package obs

import (
	"bytes"
	"sync"
)

// RingSink is a bounded in-memory JSONL sink: an io.Writer that retains the
// most recent complete lines up to a byte budget, dropping the oldest lines
// when the budget is exceeded. It is the capture buffer behind screamd's
// per-session trace endpoint — a session's tracer writes into a RingSink, so
// arbitrarily long runs cost bounded memory and never touch disk, and the
// retained tail is always a sequence of whole, valid JSONL lines.
//
// Write splits its input on '\n' (the tracer's bufio layer may deliver any
// chunking), buffering at most one partial trailing line. Writes never fail.
// A RingSink is safe for one concurrent writer plus any number of
// Snapshot/Dropped readers.
type RingSink struct {
	mu      sync.Mutex
	cap     int
	lines   [][]byte // retained complete lines, oldest first
	bytes   int      // total bytes across lines (incl. newlines)
	partial []byte   // trailing incomplete line
	dropped int64
}

// DefaultRingBytes is the per-session capture budget used when a caller
// passes 0 to NewRingSink: enough for tens of thousands of trace lines.
const DefaultRingBytes = 1 << 20

// NewRingSink returns a sink retaining up to capBytes of complete lines
// (0 uses DefaultRingBytes).
func NewRingSink(capBytes int) *RingSink {
	if capBytes <= 0 {
		capBytes = DefaultRingBytes
	}
	return &RingSink{cap: capBytes}
}

// Write implements io.Writer. It never returns an error: over-budget input
// evicts the oldest retained lines (counted by Dropped), and a single line
// larger than the whole budget is itself dropped.
func (s *RingSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(p)
	for {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			s.partial = append(s.partial, p...)
			return n, nil
		}
		line := append(s.partial, p[:i+1]...)
		s.partial = nil
		p = p[i+1:]
		if len(line) > s.cap {
			s.dropped++
			continue
		}
		s.lines = append(s.lines, line)
		s.bytes += len(line)
		for s.bytes > s.cap {
			s.bytes -= len(s.lines[0])
			s.lines[0] = nil
			s.lines = s.lines[1:]
			s.dropped++
		}
	}
}

// Snapshot returns a copy of the retained lines, concatenated in emission
// order. The trailing partial line (if the writer is mid-flush) is excluded,
// so the snapshot is always whole-line JSONL.
func (s *RingSink) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]byte, 0, s.bytes)
	for _, ln := range s.lines {
		out = append(out, ln...)
	}
	return out
}

// Dropped returns how many complete lines have been evicted (or were larger
// than the budget).
func (s *RingSink) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
