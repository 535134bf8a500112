package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRingSinkChunking: the tracer's bufio layer may hand Write any byte
// chunking; the sink must reassemble whole lines regardless.
func TestRingSinkChunking(t *testing.T) {
	s := NewRingSink(1 << 16)
	payload := "line one\nline two\nline three\n"
	for i := 0; i < len(payload); i += 7 {
		end := i + 7
		if end > len(payload) {
			end = len(payload)
		}
		n, err := s.Write([]byte(payload[i:end]))
		if err != nil || n != end-i {
			t.Fatalf("Write = (%d,%v)", n, err)
		}
	}
	if got := string(s.Snapshot()); got != payload {
		t.Fatalf("snapshot = %q, want %q", got, payload)
	}
	if s.Dropped() != 0 {
		t.Fatalf("dropped=%d, want 0", s.Dropped())
	}
}

// TestRingSinkPartialLineExcluded: a trailing line without its newline is
// buffered, not exposed — snapshots are always whole-line JSONL.
func TestRingSinkPartialLineExcluded(t *testing.T) {
	s := NewRingSink(1 << 16)
	s.Write([]byte("complete\nincompl"))
	if got := string(s.Snapshot()); got != "complete\n" {
		t.Fatalf("snapshot = %q, want %q", got, "complete\n")
	}
	s.Write([]byte("ete\n"))
	if got := string(s.Snapshot()); got != "complete\nincomplete\n" {
		t.Fatalf("snapshot = %q", got)
	}
}

// TestRingSinkEviction: over-budget input drops the oldest whole lines and
// counts them; the retained tail is the most recent suffix.
func TestRingSinkEviction(t *testing.T) {
	const line = 10 // "line-0xx.\n"
	s := NewRingSink(3 * line)
	for i := 0; i < 10; i++ {
		fmt.Fprintf(s, "line-%03d.\n", i)
	}
	want := "line-007.\nline-008.\nline-009.\n"
	if got := string(s.Snapshot()); got != want {
		t.Fatalf("snapshot = %q, want %q", got, want)
	}
	if s.Dropped() != 7 {
		t.Fatalf("dropped=%d, want 7", s.Dropped())
	}
}

// TestRingSinkOversizedLine: a single line larger than the whole budget is
// itself dropped without evicting the rest.
func TestRingSinkOversizedLine(t *testing.T) {
	s := NewRingSink(16)
	s.Write([]byte("keep\n"))
	s.Write([]byte(strings.Repeat("x", 64) + "\n"))
	s.Write([]byte("tail\n"))
	if got := string(s.Snapshot()); got != "keep\ntail\n" {
		t.Fatalf("snapshot = %q, want %q", got, "keep\ntail\n")
	}
	if s.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", s.Dropped())
	}
}

// TestRingSinkDefaultCap: cap 0 selects DefaultRingBytes.
func TestRingSinkDefaultCap(t *testing.T) {
	s := NewRingSink(0)
	if s.cap != DefaultRingBytes {
		t.Fatalf("cap = %d, want %d", s.cap, DefaultRingBytes)
	}
}

// TestRingSinkTracerRoundTrip: a Tracer writing into a RingSink (the screamd
// per-session capture path) yields a snapshot of valid whole lines under
// concurrent snapshot readers (-race gate).
func TestRingSinkTracerRoundTrip(t *testing.T) {
	s := NewRingSink(1 << 20)
	tr := NewTracer(s)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent reader, as the HTTP handler would be
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Snapshot()
			}
		}
	}()
	for i := 0; i < 500; i++ {
		tr.Emit("tick", I("t", int64(i)))
		if i%50 == 0 {
			tr.Flush()
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(string(s.Snapshot()), "\n"), "\n")
	if len(lines) != 500 {
		t.Fatalf("got %d lines, want 500", len(lines))
	}
	for i, ln := range lines {
		want := fmt.Sprintf(`{"v":2,"ev":"tick","t":%d}`, i)
		if ln != want {
			t.Fatalf("line %d = %q, want %q", i, ln, want)
		}
	}
}
