package flow

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scream/internal/des"
	"scream/internal/traffic"
)

// words returns q's words, oldest first, and the number of blocks holding
// them, without disturbing q.
func words(q *queue) (ws []des.Time, held int) {
	for b := q.head; b != nil; b = b.next {
		lo, hi := 0, len(b.w)
		if b == q.head {
			lo = q.r
		}
		if b == q.tail {
			hi = q.w
		}
		ws = append(ws, b.w[lo:hi]...)
		held++
		if b == q.tail {
			break
		}
	}
	return ws, held
}

// queued returns q's packets, oldest first, without disturbing q.
func queued(q *queue) []packet {
	ws, _ := words(q)
	out := make([]packet, 0, q.len())
	for i := 0; i < len(ws); i++ {
		if x := ws[i]; x >= 0 {
			out = append(out, packet{created: x, enqueued: x})
		} else {
			i++
			out = append(out, packet{created: ^x, enqueued: ws[i]})
		}
	}
	return out
}

// newPlane returns a plane for n nodes with no metrics, as a new Runner's
// first reset leaves it.
func newPlane(n, maxQueue int) *plane {
	p := new(plane)
	p.reset(n, maxQueue, newFlowObs(nil))
	return p
}

// freeBlocks counts the blocks on p's free list.
func (p *pool) freeBlocks() int {
	n := 0
	for b := p.free; b != nil; b = b.next {
		n++
	}
	return n
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
			t := a.Next(eng.Now(), horizon, rng)
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
	cal := newPlane(n, maxQueue)
	cal.schedule(mix(n), seed, horizon)
	ref := newPlane(n, maxQueue)
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
				cal.queues[u].pop(&cal.blocks)
				ref.queues[u].pop(&ref.blocks)
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

// TestTinyRatesOfferNothing: sources at 1e-12 pps draw their first arrival
// about 30,000 years out, past the largest des.Time. Over 1 ms they must
// offer nothing, not wrap to one packet per tick.
func TestTinyRatesOfferNothing(t *testing.T) {
	cbr, err := traffic.NewCBR(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	poisson, err := traffic.NewPoisson(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := traffic.NewBursty(1e-12, 10*des.Microsecond, 10*des.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlane(4, 0)
	p.schedule([]traffic.Arrival{nil, cbr, poisson, bursty}, 1, des.Millisecond)
	p.advance(des.Millisecond)
	if p.offered != 0 || len(p.due) != 0 {
		t.Errorf("offered %d packets, %d sources still on the calendar; want none", p.offered, len(p.due))
	}
}

// TestQueueMatchesSliceFIFO drives the block queue and a slice-backed
// reference FIFO through the same random own pushes, relay pushes (many of
// them straddling a block end), pops, drops and a queue cap, and compares
// every popped packet and every length. Each queue's blocks must also
// account for every block the pool allocated.
func TestQueueMatchesSliceFIFO(t *testing.T) {
	const nq = 3
	rng := rand.New(rand.NewSource(22))
	var (
		p        pool
		qs       [nq]queue
		ref      [nq][]packet
		clock    des.Time
		straddle int
		popped   int
	)
	for step := 0; step < 300000; step++ {
		u := rng.Intn(nq)
		q := &qs[u]
		capped := u == 0 && q.len() >= 40 // node 0 runs at a cap
		switch k := rng.Intn(100); {
		case k < 55 && !capped:
			clock += des.Time(rng.Intn(3))
			pk := packet{created: clock, enqueued: clock}
			if rng.Intn(3) == 0 && clock > 0 {
				// A relay: created earlier, enqueued now, two words.
				pk.created = des.Time(rng.Int63n(int64(clock)))
				if q.tail != nil && q.w == len(q.tail.w)-1 {
					straddle++
				}
			}
			q.push(&p, pk)
			ref[u] = append(ref[u], pk)
		case k < 99 && q.len() > 0:
			if got, want := q.peek(), ref[u][0]; got != want {
				t.Fatalf("step %d: queue %d peek = %v, want %v", step, u, got, want)
			}
			if got, want := q.pop(&p), ref[u][0]; got != want {
				t.Fatalf("step %d: queue %d pop = %v, want %v", step, u, got, want)
			}
			ref[u] = ref[u][1:]
			popped++
		case k == 99:
			if got := q.drop(&p); got != len(ref[u]) {
				t.Fatalf("step %d: queue %d drop = %d, want %d", step, u, got, len(ref[u]))
			}
			ref[u] = ref[u][:0]
		}
		if q.len() != len(ref[u]) {
			t.Fatalf("step %d: queue %d len = %d, want %d", step, u, q.len(), len(ref[u]))
		}
	}
	held := 0
	for u := range qs {
		if got := queued(&qs[u]); !slices.Equal(got, ref[u]) {
			t.Errorf("queue %d holds %v, want %v", u, got, ref[u])
		}
		_, h := words(&qs[u])
		held += h
	}
	// The slabs hold 1, 2, 4, ... maxSlab, maxSlab, ... blocks.
	allocated := 0
	for s := 1; allocated < held+p.freeBlocks(); s = min(2*s, maxSlab) {
		allocated += s
	}
	if total := held + p.freeBlocks(); total != allocated {
		t.Errorf("%d blocks held + %d free is not a whole number of slabs", held, p.freeBlocks())
	}
	if straddle < 100 || popped < 100000 {
		t.Fatalf("%d straddling relays, %d pops: the walk did not exercise the queue", straddle, popped)
	}
}

// TestFifoCompaction checks the block queue's observable invariants: FIFO
// order across block ends, a bound on the blocks held (every block but the
// head and the tail is full, and those two hold a word each), and drop
// leaving an empty, usable queue whose blocks the pool reuses.
func TestFifoCompaction(t *testing.T) {
	var (
		p pool
		q queue
	)
	rng := rand.New(rand.NewSource(1))
	var pushed, popped des.Time
	peak := 0
	for i := 0; i < 200000; i++ {
		// Random walk of the occupancy, so the head crosses block ends at
		// every size; every third packet is a two-word relay.
		if q.len() == 0 || rng.Intn(100) < 51 && q.len() < 300 {
			pk := packet{created: pushed, enqueued: pushed}
			if pushed%3 == 0 {
				pk.enqueued = 2 * pushed
			}
			q.push(&p, pk)
			pushed++
			peak = max(peak, q.len())
		} else {
			pk := q.pop(&p)
			want := packet{created: popped, enqueued: popped}
			if popped%3 == 0 {
				want.enqueued = 2 * popped
			}
			if pk != want {
				t.Fatalf("pop %d returned packet %v: FIFO order broken", popped, pk)
			}
			popped++
		}
		ws, held := words(&q)
		switch {
		case len(ws) == 0 && held != 0:
			t.Fatalf("empty queue holds %d blocks", held)
		case held >= 2 && len(ws) < (held-2)*(blockWords-1)+2:
			t.Fatalf("%d words in %d blocks: a block other than the head and the tail is not full", len(ws), held)
		}
	}
	if pushed-popped != des.Time(q.len()) {
		t.Fatalf("len %d, want %d", q.len(), pushed-popped)
	}
	if peak < 100 {
		t.Fatalf("peak occupancy %d: the walk did not exercise growth", peak)
	}

	_, held := words(&q)
	free := p.freeBlocks()
	if n := q.drop(&p); n != int(pushed-popped) {
		t.Fatalf("drop returned %d, want %d", n, pushed-popped)
	}
	if q.len() != 0 || q.head != nil {
		t.Fatal("drop left packets behind")
	}
	if got := p.freeBlocks(); got != free+held {
		t.Fatalf("drop returned %d blocks to the pool, want %d", got-free, held)
	}
	total := free + held
	for i := 0; i < 3*blockWords; i++ {
		q.push(&p, packet{created: des.Time(i), enqueued: des.Time(i)})
		if pk := q.pop(&p); pk.created != des.Time(i) {
			t.Fatalf("after drop: pop returned %v, want %d", pk.created, i)
		}
	}
	q.push(&p, packet{created: 7, enqueued: 7})
	if q.len() != 1 || q.peek().created != 7 {
		t.Fatal("queue unusable after drop")
	}
	if got := p.freeBlocks() + 1; got != total {
		t.Fatalf("pool grew from %d to %d blocks after drop", total, got)
	}
}

// TestQueueAllocatesNothing: at steady state, once the pool holds the
// blocks the occupancy needs, push and pop allocate nothing.
func TestQueueAllocatesNothing(t *testing.T) {
	var (
		p pool
		q queue
	)
	for i := 0; i < 100; i++ {
		q.push(&p, packet{})
	}
	var clock des.Time
	if allocs := testing.AllocsPerRun(1000, func() {
		clock++
		q.push(&p, packet{created: clock, enqueued: clock})
		q.push(&p, packet{created: clock, enqueued: clock + 1})
		q.pop(&p)
		q.pop(&p)
	}); allocs != 0 {
		t.Errorf("push + pop: %v allocs/op, want 0", allocs)
	}
}

// TestAdvanceAllocatesNothing: once the source queues have grown to their
// cap, advancing the calendar — draws, admissions, drops and heap fixes —
// allocates nothing. Each round serves one packet per non-empty queue and
// advances far enough for every source to refill its queue past the cap.
func TestAdvanceAllocatesNothing(t *testing.T) {
	const n, maxQueue = 9, 16
	p := newPlane(n, maxQueue)
	p.schedule(poissonMix(n), 1, des.Second)
	now := 2 * des.Millisecond
	p.advance(now)
	for u := 1; u < n; u++ {
		if p.queues[u].len() != maxQueue {
			t.Fatalf("node %d queue holds %d, want the cap %d", u, p.queues[u].len(), maxQueue)
		}
	}
	offered, dropped := p.offered, p.dropped
	allocs := testing.AllocsPerRun(200, func() {
		for u := 1; u < n; u++ {
			if p.queues[u].len() > 0 {
				p.queues[u].pop(&p.blocks)
				p.backlog--
			}
		}
		now += 200 * des.Microsecond
		p.advance(now)
	})
	if allocs != 0 {
		t.Errorf("advance: %v allocs/op, want 0", allocs)
	}
	if p.offered == offered || p.dropped == dropped {
		t.Fatal("no arrivals or no cap drops during the measured advances")
	}
}
