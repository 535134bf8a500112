package phys

// Tests for the received powers behind Channel.RxPowerMW, which every
// reader computes from the one gain matrix at the read — the values must be
// bit-identical to float64(P_u·Gain(u, v)) on every kind of deployment, and
// a Channel shared across the experiment engine's worker goroutines must be
// safe to read concurrently (run under -race).

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"scream/internal/geom"
)

// deployment is a channel's input kept beside it, so a test can recompute
// any gain row from the positions and the shadowing draw.
type deployment struct {
	name   string
	pos    []geom.Point
	pw     []float64
	shadow [][]float64 // symmetric dB draw; nil without shadowing
}

// testDeployments returns the three kinds of deployment the channel must be
// exact on, each of n nodes: a square grid at one power, uniform nodes at
// heterogeneous powers, and the uniform nodes again under log-normal
// shadowing.
func testDeployments(n int, seed int64) []deployment {
	rng := rand.New(rand.NewSource(seed))
	side := int(math.Ceil(math.Sqrt(float64(n))))
	grid := make([]geom.Point, n)
	uniform := make([]geom.Point, n)
	flat := make([]float64, n)
	hetero := make([]float64, n)
	shadow := make([][]float64, n)
	for i := range grid {
		grid[i] = geom.Point{X: float64(i%side) * 35, Y: float64(i/side) * 35}
		uniform[i] = geom.Point{X: rng.Float64() * 250, Y: rng.Float64() * 250}
		flat[i] = DBm(17).MilliWatts()
		hetero[i] = DBm(4 + float64(16*rng.Float64())).MilliWatts()
		shadow[i] = make([]float64, n)
	}
	for i := range shadow {
		for j := i + 1; j < n; j++ {
			s := rng.NormFloat64() * 6
			shadow[i][j], shadow[j][i] = s, s
		}
	}
	return []deployment{
		{"grid", grid, flat, nil},
		{"heterogeneous", uniform, hetero, nil},
		{"shadowed", uniform, hetero, shadow},
	}
}

// channel builds the deployment's channel.
func (d deployment) channel(tb testing.TB) *Channel {
	tb.Helper()
	gain := BuildGainMatrix(d.pos, DefaultLogDistance(), d.shadow)
	ch, err := NewChannel(slices.Clone(d.pw), gain, DBm(-96).MilliWatts(), DB(10).Linear())
	if err != nil {
		tb.Fatal(err)
	}
	return ch
}

// row returns node u's gain row at the current positions: the entries
// BuildGainMatrix computes for u's pairs, 0 at u itself.
func (d deployment) row(u int) []float64 {
	pl := DefaultLogDistance()
	row := make([]float64, len(d.pos))
	for v := range row {
		if v == u {
			continue
		}
		row[v] = pl.Gain(d.pos[u].Dist(d.pos[v]))
		if d.shadow != nil {
			row[v] = Shadowed(row[v], d.shadow[u][v])
		}
	}
	return row
}

// assertExactProducts checks every received power of ch against
// float64(P_u·Gain(u, v)) bit for bit, through RxPowerMW, the Engine
// methods and NewCandidate, and that no node receives itself.
func assertExactProducts(t *testing.T, ch *Channel, what string) {
	t.Helper()
	bits := math.Float64bits
	n := ch.NumNodes()
	for u := 0; u < n; u++ {
		if ch.Gain(u, u) != 0 || ch.RxPowerMW(u, u) != 0 {
			t.Fatalf("%s: node %d has self-gain %v, self-reception %v", what, u, ch.Gain(u, u), ch.RxPowerMW(u, u))
		}
		for v := 0; v < n; v++ {
			want := float64(ch.txPowerMW[u] * ch.Gain(u, v))
			if got := ch.RxPowerMW(u, v); bits(got) != bits(want) {
				t.Fatalf("%s: RxPowerMW(%d,%d) = %v, want exactly %v", what, u, v, got, want)
			}
			if bits(ch.SignalMW(u, v)) != bits(want) || bits(ch.InterfMW(u, v)) != bits(want) {
				t.Fatalf("%s: SignalMW/InterfMW(%d,%d) differ from %v", what, u, v, want)
			}
			c := NewCandidate(ch, Link{From: u, To: v})
			if bits(c.DataMW) != bits(want) || bits(c.AckMW) != bits(ch.RxPowerMW(v, u)) {
				t.Fatalf("%s: NewCandidate(%d->%d) = %+v, want data %v", what, u, v, c, want)
			}
		}
	}
}

// TestRxPowerCacheExact: on a grid, a heterogeneous-power and a shadowed
// deployment, every received power equals the single product of the
// sender's power and the stored gain, and the stored gains are the ones
// BuildGainMatrix computed.
func TestRxPowerCacheExact(t *testing.T) {
	for _, d := range testDeployments(30, 1) {
		ch := d.channel(t)
		want := BuildGainMatrix(d.pos, DefaultLogDistance(), d.shadow)
		n := ch.NumNodes()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if math.Float64bits(ch.Gain(u, v)) != math.Float64bits(want[u*n+v]) {
					t.Fatalf("%s: Gain(%d,%d) = %v, built %v", d.name, u, v, ch.Gain(u, v), want[u*n+v])
				}
			}
		}
		assertExactProducts(t, ch, d.name)
	}
}

// TestNewChannelAdoptsGains: the channel keeps the matrix it is handed, with
// no copy, and zeroes its diagonal, so Gain and RxPowerMW of a node to
// itself read 0 whatever the caller put there.
func TestNewChannelAdoptsGains(t *testing.T) {
	gain := []float64{5, 2e-3, 2e-3, 7}
	ch, err := NewChannel([]float64{2, 3}, gain, 1e-9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if &ch.gain[0] != &gain[0] {
		t.Fatal("NewChannel copied the gain matrix")
	}
	if gain[0] != 0 || gain[3] != 0 || ch.Gain(1, 1) != 0 || ch.RxPowerMW(0, 0) != 0 {
		t.Fatalf("diagonal not zeroed: %v", gain)
	}
	if got, want := ch.RxPowerMW(1, 0), float64(3*2e-3); got != want {
		t.Fatalf("RxPowerMW(1,0) = %v, want %v", got, want)
	}
}

// TestRxPowerCacheConcurrent hammers a freshly built Channel from many
// goroutines at once — the experiment engine's workers share one deployment
// per cell batch. The channel is complete when NewChannel returns, so the
// readers need no synchronization: run under -race this proves reads and
// SlotState bindings are data-race free, and the value checks prove every
// reader observes the built matrix.
func TestRxPowerCacheConcurrent(t *testing.T) {
	const workers = 16
	for round := 0; round < 10; round++ {
		ch := lineChannel(t, 24, 35, 20) // a fresh channel each round
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 500; i++ {
					u := rng.Intn(ch.NumNodes())
					v := rng.Intn(ch.NumNodes())
					want := float64(ch.txPowerMW[u] * ch.Gain(u, v))
					if got := ch.RxPowerMW(u, v); got != want {
						select {
						case errs <- "stale or torn read":
						default:
						}
						return
					}
				}
				// SlotStates bind to the shared matrix too; exercise the
				// same path the concurrent schedulers take.
				st := newSlotState(ch)
				a := rng.Intn(ch.NumNodes() - 1)
				if c := NewCandidate(ch, Link{a, a + 1}); st.CanAdd(c) {
					st.Add(c)
				}
			}(int64(round*workers + w))
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}
