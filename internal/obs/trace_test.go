package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTracerSchemaV2(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb)
	tr.Emit("epoch", I("t", 12345), N("epoch", 3), S("sched", `say "hi"`), B("ok", true))
	tr.Emit("end", I("t", 99))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != 2 {
		t.Fatalf("events = %d, want 2", tr.Events())
	}

	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	want := `{"v":2,"ev":"epoch","t":12345,"epoch":3,"sched":"say \"hi\"","ok":true}`
	if lines[0] != want {
		t.Fatalf("line 0:\n got %s\nwant %s", lines[0], want)
	}
	// Every line must be valid standalone JSON carrying the schema version.
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", ln, err)
		}
		if v, ok := m["v"].(float64); !ok || int(v) != TraceVersion {
			t.Fatalf("line %q missing schema version %d", ln, TraceVersion)
		}
		if _, ok := m["ev"].(string); !ok {
			t.Fatalf("line %q missing event name", ln)
		}
	}
}

func TestTracerDeterministicBytes(t *testing.T) {
	emit := func() string {
		var sb strings.Builder
		tr := NewTracer(&sb)
		for i := 0; i < 100; i++ {
			tr.Emit("tick", I("t", int64(i)*17), N("x", i/3), B("even", i%2 == 0))
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if emit() != emit() {
		t.Fatal("identical emission sequences must produce identical bytes")
	}
}

// TestTracerConcurrentEmit exercises the mutex path under -race: lines from
// concurrent emitters may interleave in any order but must never tear.
func TestTracerConcurrentEmit(t *testing.T) {
	var sb strings.Builder
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	tr := NewTracer(w)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Emit("e", N("g", g), N("i", i))
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 8*200 {
		t.Fatalf("got %d lines, want %d", len(lines), 8*200)
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("torn line %q: %v", ln, err)
		}
	}
}

// TestTracerSpans pins the exact span_begin/span_end wire format and the
// implicit-parent discipline: spans nest LIFO, ids are sequential, and End
// restores the enclosing span as parent of subsequent Begins.
func TestTracerSpans(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb)
	run := tr.Begin("run", 0, N("nodes", 4))
	ep := tr.Begin("epoch", 10, N("epoch", 0))
	tr.Emit("point", I("t", 11))
	tr.End(ep, 20, N("slots", 3))
	ep2 := tr.Begin("epoch", 20, N("epoch", 1))
	tr.End(ep2, 30)
	tr.End(run, 30, N("offered", 7))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	want := []string{
		`{"v":2,"ev":"span_begin","t":0,"span":1,"parent":0,"name":"run","nodes":4}`,
		`{"v":2,"ev":"span_begin","t":10,"span":2,"parent":1,"name":"epoch","epoch":0}`,
		`{"v":2,"ev":"point","t":11}`,
		`{"v":2,"ev":"span_end","t":20,"span":2,"name":"epoch","slots":3}`,
		`{"v":2,"ev":"span_begin","t":20,"span":3,"parent":1,"name":"epoch","epoch":1}`,
		`{"v":2,"ev":"span_end","t":30,"span":3,"name":"epoch"}`,
		`{"v":2,"ev":"span_end","t":30,"span":1,"name":"run","offered":7}`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(got), len(want), sb.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestTracerNilSpans: a nil tracer's Begin returns 0 and End(0) is a no-op,
// so call sites need no nil guards of their own.
func TestTracerNilSpans(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("run", 0)
	if id != 0 {
		t.Fatalf("nil Begin = %d, want 0", id)
	}
	tr.End(id, 10)
	tr.SetTimeBase(5)
	if tr.TimeBase() != 0 {
		t.Fatalf("nil TimeBase = %d, want 0", tr.TimeBase())
	}

	// End(0) on a live tracer must also be a no-op (the handle a disabled
	// call site carries).
	var sb strings.Builder
	live := NewTracer(&sb)
	live.End(0, 10)
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("End(0) emitted %q", sb.String())
	}
}

func TestTracerTimeBase(t *testing.T) {
	tr := NewTracer(&strings.Builder{})
	if tr.TimeBase() != 0 {
		t.Fatalf("initial TimeBase = %d, want 0", tr.TimeBase())
	}
	tr.SetTimeBase(12345)
	if tr.TimeBase() != 12345 {
		t.Fatalf("TimeBase = %d, want 12345", tr.TimeBase())
	}
}

// TestTracerWallClock: with wall-clock sampling enabled, span_end carries a
// wall_ns field measured by the injected clock; begin lines are unchanged.
func TestTracerWallClock(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb)
	clock := int64(1000)
	tr.EnableWallClock(func() int64 { clock += 250; return clock })
	id := tr.Begin("run", 0) // clock -> 1250
	tr.End(id, 5)            // clock -> 1500, wall_ns = 250
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	wantEnd := `{"v":2,"ev":"span_end","t":5,"span":1,"name":"run","wall_ns":250}`
	if lines[1] != wantEnd {
		t.Fatalf("span_end:\n got %s\nwant %s", lines[1], wantEnd)
	}
}

// TestFieldKeyGuard proves the injection fix: field keys are appended to the
// JSON output unescaped, so non-identifier keys must panic at construction
// instead of emitting an invalid line.
func TestFieldKeyGuard(t *testing.T) {
	mustPanic := func(key string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("key %q did not panic", key)
			}
		}()
		I(key, 1)
	}
	mustPanic(``)
	mustPanic(`bad"key`)
	mustPanic(`back\slash`)
	mustPanic(`1starts_with_digit`)
	mustPanic(`has space`)
	mustPanic(`new
line`)

	// Valid identifiers must not panic, for every constructor.
	for _, f := range []Field{
		I("t", 1), N("epoch_3", 2), S("_lead", "v"), B("Ok", true),
	} {
		if f.key == "" {
			t.Fatal("valid key rejected")
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
