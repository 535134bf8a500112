package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
)

// TraceVersion is the trace schema version stamped into every event as the
// leading "v" field. Bump it when an event's fields change meaning; adding
// new events or trailing fields is backward-compatible within a version.
//
// Schema v2: one JSON object per line, fields in fixed order:
//
//	{"v":2,"ev":"<event>","t":<ticks>, <event-specific fields...>}
//
// "t" is simulated time in des.Time nanosecond ticks (int64) — never wall
// clock, which is what makes traces byte-identical across runs of the same
// seed. v2 adds *span semantics* on top of v1's point events: paired
//
//	{"v":2,"ev":"span_begin","t":...,"span":<id>,"parent":<id>,"name":"<span>",...}
//	{"v":2,"ev":"span_end","t":...,"span":<id>,"name":"<span>",...}
//
// lines delimit a timed interval. Span ids are small positive integers
// allocated sequentially per tracer (deterministic for a deterministic
// emission order); parent is the innermost span open at begin time (0 =
// root). The emitted hierarchy of a flow run is
//
//	run ▸ epoch ▸ schedule_build ▸ slot
//
// with the v1 point events (controller_elected, handshake, churn, repair,
// protocol) riding inside their enclosing spans. When wall-clock sampling is
// enabled (EnableWallClock — an explicit opt-in, off for golden traces), each
// span_end additionally carries "wall_ns", the measured wall-clock duration
// of the span; everything else in the trace stays simulated-time only. The
// event catalogue is documented in DESIGN.md under "Observability".
const TraceVersion = 2

// SpanID identifies one span within a tracer's event stream. The zero value
// means "no span" (the root of the hierarchy, and the return of Begin on a
// nil tracer).
type SpanID int64

// Field is one key/value pair of a trace event. Values are typed explicitly
// (no reflection on the encode path) and encode as JSON integers, strings or
// booleans.
type Field struct {
	key  string
	kind uint8 // 'i' int64, 's' string, 'b' bool
	i    int64
	s    string
}

// checkKey panics unless key is a plain identifier ([A-Za-z_][A-Za-z0-9_]*).
// Keys are appended to the JSON output unescaped, so an unchecked key
// containing a quote or backslash would emit an invalid line; keys are
// compile-time constants at every call site, which makes a construction-time
// panic the right failure mode (the bug cannot reach production traces).
func checkKey(key string) string {
	if len(key) == 0 {
		panic("obs: empty trace field key")
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c == '_', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				panic("obs: trace field key " + strconv.Quote(key) + " starts with a digit")
			}
		default:
			panic("obs: trace field key " + strconv.Quote(key) + " is not a plain identifier")
		}
	}
	return key
}

// I returns an int64 field.
func I(key string, v int64) Field { return Field{key: checkKey(key), kind: 'i', i: v} }

// N returns an int field.
func N(key string, v int) Field { return Field{key: checkKey(key), kind: 'i', i: int64(v)} }

// S returns a string field.
func S(key string, v string) Field { return Field{key: checkKey(key), kind: 's', s: v} }

// B returns a bool field.
func B(key string, v bool) Field { return Field{key: checkKey(key), kind: 'b', i: b2i(v)} }

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// wallEpoch anchors the process-wide monotonic wall clock used by wall-clock
// span sampling and the Perf histograms: readings are nanoseconds since
// process start (time.Since uses the monotonic clock, so NTP steps cannot
// produce negative durations).
var wallEpoch = time.Now()

// WallNow returns the monotonic wall clock in nanoseconds since process
// start.
func WallNow() int64 { return int64(time.Since(wallEpoch)) }

// openSpan is the tracer's record of a begun, not-yet-ended span.
type openSpan struct {
	parent SpanID
	name   string
	wall   int64 // WallNow at begin; only read when wallClock is set
}

// Tracer writes structured events as JSON Lines. It is safe for concurrent
// emitters (one line per event, atomically appended under a mutex), though
// deterministic byte-identical traces additionally require a deterministic
// emission order — single-worker runs, which is what the golden-file test
// pins. A nil *Tracer is a no-op, but callers on hot paths should guard
// `if tr != nil` themselves so the variadic fields are never materialized
// on the disabled path.
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	buf    []byte // per-event scratch, reused under mu
	events int64
	err    error

	nextSpan  int64
	cur       SpanID // innermost open span (the implicit parent of Begin)
	open      map[SpanID]openSpan
	base      int64        // time base added by nested emitters (SetTimeBase)
	wallClock func() int64 // nil = wall-clock sampling disabled
}

// NewTracer returns a tracer writing to w. Call Flush (or Close on the
// underlying writer after Flush) when done.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: bufio.NewWriter(w)}
}

// EnableWallClock turns on wall-clock span sampling: every subsequent
// span_end carries a "wall_ns" field measuring the span's wall-clock
// duration. now is the clock (nil uses WallNow). This deliberately breaks
// byte-determinism of the trace — it is an explicit opt-in for performance
// investigation (flowsim -perf), never enabled on golden traces.
func (t *Tracer) EnableWallClock(now func() int64) {
	if t == nil {
		return
	}
	if now == nil {
		now = WallNow
	}
	t.mu.Lock()
	t.wallClock = now
	t.mu.Unlock()
}

// SetTimeBase installs an offset added to the timestamps of nested emitters
// that only know time relative to their own start (the protocol backend's
// Elapsed clock restarts at zero every epoch). The flow driver sets it to the
// current simulated time before each control phase; TimeBase reads it back.
// Emitters that know absolute time simply never call TimeBase.
func (t *Tracer) SetTimeBase(base int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.base = base
	t.mu.Unlock()
}

// TimeBase returns the current time base (0 for nil or when never set).
func (t *Tracer) TimeBase() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.base
}

// Emit appends one point-event line: {"v":2,"ev":ev,fields...}. Field keys
// are validated at Field construction (checkKey); values are properly
// JSON-encoded. The first write error is retained and reported by Flush.
func (t *Tracer) Emit(ev string, fields ...Field) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(ev, fields)
}

// Begin opens a span named name at simulated time tick, parented at the
// innermost currently open span, and returns its id. The emitted line is
//
//	{"v":2,"ev":"span_begin","t":tick,"span":id,"parent":pid,"name":name,fields...}
//
// Begin on a nil tracer returns 0.
func (t *Tracer) Begin(name string, tick int64, fields ...Field) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
	id := SpanID(t.nextSpan)
	if t.open == nil {
		t.open = make(map[SpanID]openSpan)
	}
	rec := openSpan{parent: t.cur, name: name}
	if t.wallClock != nil {
		rec.wall = t.wallClock()
	}
	t.open[id] = rec
	t.cur = id
	head := append(t.buf[:0], `{"v":`...)
	head = strconv.AppendInt(head, TraceVersion, 10)
	head = append(head, `,"ev":"span_begin","t":`...)
	head = strconv.AppendInt(head, tick, 10)
	head = append(head, `,"span":`...)
	head = strconv.AppendInt(head, int64(id), 10)
	head = append(head, `,"parent":`...)
	head = strconv.AppendInt(head, int64(rec.parent), 10)
	head = append(head, `,"name":`...)
	head = strconv.AppendQuote(head, name)
	t.finishLocked(head, fields)
	return id
}

// End closes the span at simulated time tick:
//
//	{"v":2,"ev":"span_end","t":tick,"span":id,"name":name,["wall_ns":ns,]fields...}
//
// Ending SpanID 0 (the Begin return of a nil tracer) is a no-op, so callers
// can End unconditionally. Spans close innermost-first; End restores the
// span's parent as the implicit parent of subsequent Begins.
func (t *Tracer) End(id SpanID, tick int64, fields ...Field) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.open[id]
	if ok {
		delete(t.open, id)
		t.cur = rec.parent
	}
	head := append(t.buf[:0], `{"v":`...)
	head = strconv.AppendInt(head, TraceVersion, 10)
	head = append(head, `,"ev":"span_end","t":`...)
	head = strconv.AppendInt(head, tick, 10)
	head = append(head, `,"span":`...)
	head = strconv.AppendInt(head, int64(id), 10)
	head = append(head, `,"name":`...)
	head = strconv.AppendQuote(head, rec.name)
	if ok && t.wallClock != nil {
		head = append(head, `,"wall_ns":`...)
		head = strconv.AppendInt(head, t.wallClock()-rec.wall, 10)
	}
	t.finishLocked(head, fields)
}

// emitLocked writes a point-event line. Callers hold mu.
func (t *Tracer) emitLocked(ev string, fields []Field) {
	head := append(t.buf[:0], `{"v":`...)
	head = strconv.AppendInt(head, TraceVersion, 10)
	head = append(head, `,"ev":`...)
	head = strconv.AppendQuote(head, ev)
	t.finishLocked(head, fields)
}

// finishLocked appends the variadic fields to a started line, terminates and
// writes it. Callers hold mu; buf is handed back for reuse.
func (t *Tracer) finishLocked(buf []byte, fields []Field) {
	if t.err != nil {
		t.buf = buf
		return
	}
	for _, f := range fields {
		buf = append(buf, ',', '"')
		buf = append(buf, f.key...)
		buf = append(buf, '"', ':')
		switch f.kind {
		case 'i':
			buf = strconv.AppendInt(buf, f.i, 10)
		case 's':
			buf = strconv.AppendQuote(buf, f.s)
		case 'b':
			if f.i != 0 {
				buf = append(buf, "true"...)
			} else {
				buf = append(buf, "false"...)
			}
		}
	}
	buf = append(buf, '}', '\n')
	t.buf = buf
	if _, err := t.w.Write(buf); err != nil {
		t.err = err
		return
	}
	t.events++
}

// Events returns the number of events emitted so far.
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Flush drains the buffer and returns the first error seen by any Emit or
// flush.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}
