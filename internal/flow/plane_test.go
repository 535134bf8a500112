package flow

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"scream/internal/des"
	"scream/internal/traffic"
)

// queued returns q's packets, oldest first, without disturbing q.
func queued(q *fifo) []packet {
	out := make([]packet, q.len())
	for i := range out {
		out[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	return out
}

// refSchedule drives p's arrivals the way the event-per-arrival driver did:
// one des.Engine event per arrival, each firing source offering a packet
// unless its node is down, drawing its next arrival from the engine clock
// and scheduling it as a new event.
func refSchedule(eng *des.Engine, p *plane, arrivals []traffic.Arrival, seed int64, horizon des.Time) {
	for u, a := range arrivals {
		if a == nil {
			continue
		}
		rng := rand.New(rand.NewSource(DeriveSeed(seed, int64(u))))
		var fire func()
		schedule := func() {
			t := a.Next(eng.Now(), rng)
			if t <= eng.Now() {
				t = eng.Now() + 1
			}
			if t >= horizon {
				return
			}
			eng.At(t, fire)
		}
		fire = func() {
			if p.alive == nil || p.alive[u] {
				p.offered++
				p.enqueue(u, packet{created: eng.Now(), enqueued: eng.Now()})
			}
			schedule()
		}
		schedule()
	}
}

// arrivalMix builds a fresh set of arrival processes for n nodes (node 0 is
// a silent gateway); calling it twice gives two equal, independent sets.
type arrivalMix func(n int) []traffic.Arrival

func poissonMix(n int) []traffic.Arrival {
	arr := make([]traffic.Arrival, n)
	for u := 1; u < n; u++ {
		arr[u] = &traffic.Poisson{Rate: float64(u) * 2e4}
	}
	return arr
}

// cbrMix gives most sources the same interval, so their arrivals collide
// at equal timestamps, plus one Interval: 0 source that arrives every tick.
func cbrMix(n int) []traffic.Arrival {
	arr := make([]traffic.Arrival, n)
	for u := 1; u < n; u++ {
		arr[u] = &traffic.CBR{Interval: 7 * des.Microsecond}
	}
	arr[n-1] = &traffic.CBR{Interval: 0}
	arr[n-2] = &traffic.CBR{Interval: 3 * des.Microsecond}
	return arr
}

func burstyMix(n int) []traffic.Arrival {
	arr := make([]traffic.Arrival, n)
	for u := 1; u < n; u++ {
		arr[u] = &traffic.Bursty{PeakRate: 5e5, MeanOn: 40 * des.Microsecond, MeanOff: 90 * des.Microsecond}
	}
	return arr
}

// TestCalendarMatchesEventDriver feeds the arrival calendar and the
// event-per-arrival reference equally seeded processes and drives both
// through the same advance targets — empty windows, windows ending exactly
// on an arrival, windows spanning many arrivals, and the horizon — with
// sources dying and recovering between advances, queues draining, and a
// queue cap. After every advance both sides must hold the same packets in
// every queue and the same totals.
func TestCalendarMatchesEventDriver(t *testing.T) {
	const n = 9
	mixes := []struct {
		name    string
		mix     arrivalMix
		horizon des.Time // short for CBR: its Interval: 0 source fires every tick
	}{
		{"poisson", poissonMix, 400 * des.Microsecond},
		{"cbr", cbrMix, 60 * des.Microsecond},
		{"bursty", burstyMix, 400 * des.Microsecond},
	}
	for _, mx := range mixes {
		for _, maxQueue := range []int{0, 5} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/maxq%d/seed%d", mx.name, maxQueue, seed)
				t.Run(name, func(t *testing.T) {
					checkCalendar(t, mx.mix, n, maxQueue, seed, mx.horizon)
				})
			}
		}
	}
}

func checkCalendar(t *testing.T, mix arrivalMix, n, maxQueue int, seed int64, horizon des.Time) {
	m := newFlowObs(nil)
	cal := newPlane(n, maxQueue, &m)
	cal.schedule(mix(n), seed, horizon)
	ref := newPlane(n, maxQueue, &m)
	eng := des.New()
	refSchedule(eng, ref, mix(n), seed, horizon)

	alive := make([]bool, n)
	for u := range alive {
		alive[u] = true
	}
	cal.alive, ref.alive = alive, alive

	rng := rand.New(rand.NewSource(seed))
	var now des.Time
	kinds := map[string]int{}
	for step := 0; now < horizon; step++ {
		var kind string
		switch k := rng.Intn(5); {
		case k == 0:
			kind = "empty" // no time passes
		case k == 1 && len(cal.due) > 0:
			kind = "on-arrival"
			now = cal.due[0].at
		case k == 2:
			kind = "short"
			now += des.Time(1 + rng.Intn(3000))
		default:
			kind = "long"
			now += des.Time(rng.Intn(int(horizon / 8)))
		}
		if now >= horizon || step > 400 {
			kind, now = "horizon", horizon
		}
		kinds[kind]++
		cal.advance(now)
		eng.RunUntil(now)
		comparePlanes(t, cal, ref, fmt.Sprintf("step %d (%s, t=%d)", step, kind, now))
		if t.Failed() {
			return
		}

		// Between advances the epoch driver may change aliveness and drain
		// queues; apply the same changes to both sides.
		if rng.Intn(3) == 0 {
			u := 1 + rng.Intn(n-1)
			alive[u] = !alive[u]
		}
		for i := rng.Intn(4); i > 0; i-- {
			u := 1 + rng.Intn(n-1)
			for k := rng.Intn(4); k > 0 && cal.queues[u].len() > 0; k-- {
				cal.queues[u].pop()
				ref.queues[u].pop()
				cal.backlog--
				ref.backlog--
			}
		}
	}
	if len(cal.due) != 0 {
		t.Errorf("calendar still holds %d sources after the horizon", len(cal.due))
	}
	if eng.Step() {
		t.Error("reference still holds events after the horizon")
	}
	if cal.offered == 0 {
		t.Fatal("no arrivals: the check is vacuous")
	}
	if maxQueue > 0 && cal.dropped == 0 {
		t.Error("queue cap never engaged")
	}
	if kinds["on-arrival"] == 0 || kinds["long"] == 0 {
		t.Errorf("advance kinds not all exercised: %v", kinds)
	}
}

func comparePlanes(t *testing.T, cal, ref *plane, at string) {
	t.Helper()
	if cal.offered != ref.offered || cal.dropped != ref.dropped ||
		cal.backlog != ref.backlog || cal.peak != ref.peak {
		t.Errorf("%s: calendar offered/dropped/backlog/peak = %d/%d/%d/%d, reference %d/%d/%d/%d", at,
			cal.offered, cal.dropped, cal.backlog, cal.peak,
			ref.offered, ref.dropped, ref.backlog, ref.peak)
	}
	for u := range cal.queues {
		if got, want := queued(&cal.queues[u]), queued(&ref.queues[u]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: node %d queue = %v, reference %v", at, u, got, want)
		}
	}
}

// TestFifoCompaction checks the ring's observable invariants: FIFO order
// across wrap-around and growth, capacity bounded by the next power of two
// at or above the peak occupancy, and drop leaving an empty, usable queue.
func TestFifoCompaction(t *testing.T) {
	var q fifo
	rng := rand.New(rand.NewSource(1))
	var pushed, popped des.Time
	peak := 0
	for i := 0; i < 200000; i++ {
		// Random walk of the occupancy, so the head wraps at every size.
		if q.len() == 0 || rng.Intn(100) < 51 && q.len() < 300 {
			q.push(packet{created: pushed, enqueued: -pushed})
			pushed++
			peak = max(peak, q.len())
		} else {
			p := q.pop()
			if p.created != popped || p.enqueued != -popped {
				t.Fatalf("pop %d returned packet %v: FIFO order broken", popped, p)
			}
			popped++
		}
		if c := len(q.buf); c > 1<<bits.Len(uint(peak-1)) {
			t.Fatalf("capacity %d exceeds the next power of two above peak %d", c, peak)
		}
	}
	if pushed-popped != des.Time(q.len()) {
		t.Fatalf("len %d, want %d", q.len(), pushed-popped)
	}
	if peak < 100 {
		t.Fatalf("peak occupancy %d: the walk did not exercise growth", peak)
	}

	capBefore := len(q.buf)
	if n := q.drop(); n != int(pushed-popped) {
		t.Fatalf("drop returned %d, want %d", n, pushed-popped)
	}
	if q.len() != 0 {
		t.Fatal("drop left packets behind")
	}
	if len(q.buf) != capBefore {
		t.Fatalf("drop changed capacity %d -> %d", capBefore, len(q.buf))
	}
	for i := 0; i < 3*capBefore; i++ {
		q.push(packet{created: des.Time(i)})
		if p := q.pop(); p.created != des.Time(i) {
			t.Fatalf("after drop: pop returned %v, want %d", p.created, i)
		}
	}
	q.push(packet{created: 7})
	if q.len() != 1 || q.peek().created != 7 {
		t.Fatal("queue unusable after drop")
	}
}

// TestRingAllocatesNothing: at steady state — capacity already grown to the
// occupancy — push and pop allocate nothing.
func TestRingAllocatesNothing(t *testing.T) {
	var q fifo
	for i := 0; i < 100; i++ {
		q.push(packet{})
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		q.push(packet{})
		q.pop()
	}); allocs != 0 {
		t.Errorf("push + pop: %v allocs/op, want 0", allocs)
	}
}

// TestAdvanceAllocatesNothing: once the source queues have grown to their
// cap, advancing the calendar — draws, admissions, drops and heap fixes —
// allocates nothing.
func TestAdvanceAllocatesNothing(t *testing.T) {
	const n, maxQueue = 9, 16
	m := newFlowObs(nil)
	p := newPlane(n, maxQueue, &m)
	p.schedule(poissonMix(n), 1, des.Second)
	now := 2 * des.Millisecond
	p.advance(now)
	for u := 1; u < n; u++ {
		if p.queues[u].len() != maxQueue {
			t.Fatalf("node %d queue holds %d, want the cap %d", u, p.queues[u].len(), maxQueue)
		}
	}
	offered := p.offered
	allocs := testing.AllocsPerRun(200, func() {
		for u := 1; u < n; u++ {
			p.queues[u].pop()
			p.backlog--
		}
		now += 5 * des.Microsecond
		p.advance(now)
	})
	if allocs != 0 {
		t.Errorf("advance: %v allocs/op, want 0", allocs)
	}
	if p.offered == offered {
		t.Fatal("no arrivals during the measured advances")
	}
}
