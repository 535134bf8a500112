package des

import (
	"math/rand"
	"sort"
	"testing"
)

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1 {
		t.Errorf("Second.Seconds() = %v", Second.Seconds())
	}
	if FromSeconds(2.5) != 2500*Millisecond {
		t.Errorf("FromSeconds(2.5) = %v", FromSeconds(2.5))
	}
	if (1500 * Microsecond).String() != "0.001500s" {
		t.Errorf("String = %q", (1500 * Microsecond).String())
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-instant events must run FIFO, got %v", order)
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var at Time
	e.After(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Errorf("nested After ended at %v, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past must panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestStepAndPending(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty queue should be false")
	}
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	if !e.Step() || e.Pending() != 1 {
		t.Error("Step should consume one event")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Errorf("RunUntil(25) fired %v", fired)
	}
	if e.Now() != 25 {
		t.Errorf("Now = %v, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("remaining events not fired: %v", fired)
	}
}

func TestRunUntilDoesNotRewind(t *testing.T) {
	e := New()
	e.RunUntil(100)
	e.RunUntil(50)
	if e.Now() != 100 {
		t.Errorf("RunUntil must never rewind the clock, Now = %v", e.Now())
	}
}

func TestDeterminismUnderRandomLoad(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var log []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			log = append(log, e.Now())
			if depth < 4 {
				for i := 0; i < 3; i++ {
					e.After(Time(rng.Intn(100)), func() { spawn(depth + 1) })
				}
			}
		}
		e.At(0, func() { spawn(0) })
		e.Run()
		return log
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestClockMonotone(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(3))
	last := Time(-1)
	var check func()
	count := 0
	check = func() {
		if e.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", e.Now(), last)
		}
		last = e.Now()
		count++
		if count < 500 {
			e.After(Time(rng.Intn(10)), check)
		}
	}
	e.At(0, check)
	e.Run()
}

// TestPopOrderMatchesReference checks the run order against an independent
// reference: a stable sort by time over all events in scheduling order.
// Scheduling and stepping interleave at random, events schedule further
// events, and timestamps collide often. TestDeterminismUnderRandomLoad
// only shows runs repeat, which a wrong but deterministic queue also does.
func TestPopOrderMatchesReference(t *testing.T) {
	type scheduled struct {
		id int
		at Time
	}
	rng := rand.New(rand.NewSource(11))
	e := New()
	var all []scheduled
	var ran []int
	var schedule func(at Time)
	schedule = func(at Time) {
		id := len(all)
		all = append(all, scheduled{id, at})
		e.At(at, func() {
			if e.Now() != at {
				t.Fatalf("event %d ran at %v, scheduled for %v", id, e.Now(), at)
			}
			ran = append(ran, id)
			if len(all) < 5000 && rng.Intn(2) == 0 {
				for k := rng.Intn(3); k >= 0; k-- {
					schedule(e.Now() + Time(rng.Intn(4)))
				}
			}
		})
	}
	for len(all) < 2000 {
		if rng.Intn(3) == 0 {
			e.Step()
		} else {
			schedule(e.Now() + Time(rng.Intn(8)))
		}
	}
	e.Run()

	want := append([]scheduled(nil), all...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(ran) != len(want) {
		t.Fatalf("ran %d events, scheduled %d", len(ran), len(want))
	}
	for i, w := range want {
		if ran[i] != w.id {
			t.Fatalf("event %d in run order is %d, reference says %d (at %v)", i, ran[i], w.id, w.at)
		}
	}
}

func TestAtStepAllocatesNothing(t *testing.T) {
	e := New()
	fn := func() {}
	// A standing backlog gives every push and pop a few levels to sift.
	for i := 0; i < 64; i++ {
		e.At(Time(1e6+i), fn)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.At(e.Now()+1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("At + Step: %v allocs/op, want 0", allocs)
	}
}
