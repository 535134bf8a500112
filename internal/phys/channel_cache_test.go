package phys

// Tests for the lazily-built RX-power cache behind Channel.RxPowerMW — the
// values must be bit-identical to the uncached product, and the lazy fill
// must be safe when one Channel is shared across the experiment engine's
// worker goroutines (run under -race).

import (
	"math/rand"
	"sync"
	"testing"
)

// TestRxPowerCacheExact: every cached entry equals the direct product the
// uncached implementation computed, bit for bit.
func TestRxPowerCacheExact(t *testing.T) {
	ch := lineChannel(t, 16, 37.5, 17)
	for u := 0; u < ch.NumNodes(); u++ {
		for v := 0; v < ch.NumNodes(); v++ {
			want := ch.txPowerMW[u] * ch.Gain(u, v)
			if got := ch.RxPowerMW(u, v); got != want {
				t.Fatalf("RxPowerMW(%d,%d) = %v, want exactly %v", u, v, got, want)
			}
		}
	}
	if ch.RxPowerMW(3, 3) != 0 {
		t.Fatal("self-reception must stay 0 through the cache")
	}
}

// TestRxPowerCacheConcurrent hammers a single cold Channel from many
// goroutines at once — the experiment engine's workers share one deployment
// per cell batch — so the lazy fill races with readers unless properly
// synchronized. Run under -race this proves the cache is data-race free; the
// value checks prove every racer observes the fully-built matrix.
func TestRxPowerCacheConcurrent(t *testing.T) {
	const workers = 16
	for round := 0; round < 10; round++ {
		ch := lineChannel(t, 24, 35, 20) // fresh cold cache each round
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
					want := ch.txPowerMW[u] * ch.Gain(u, v)
					if got := ch.RxPowerMW(u, v); got != want {
						select {
						case errs <- "stale or torn cache read":
						default:
						}
						return
					}
				}
				// SlotStates bind to the shared matrix too; exercise the
				// same path the concurrent schedulers take.
				st := NewSlotState(ch)
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
