package phys

// Property tests for the incremental SINR feasibility engine: SlotState must
// agree decision-for-decision with the naive reference implementations
// (FeasibleSet, HandshakeOutcome) over randomized add/rollback sequences,
// and Mark/Rollback must restore state exactly.

import (
	"math"
	"math/rand"
	"testing"
)

// gridChannel builds a channel with side*side nodes on a square grid, step
// meters apart, homogeneous power, default propagation.
func gridChannel(tb testing.TB, side int, step float64, txDBm DBm) *Channel {
	tb.Helper()
	n := side * side
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dx := float64(i%side-j%side) * step
			dy := float64(i/side-j/side) * step
			dist[i][j] = math.Hypot(dx, dy)
		}
	}
	gain := BuildGainMatrix(dist, DefaultLogDistance(), nil)
	pw := make([]float64, n)
	for i := range pw {
		pw[i] = txDBm.MilliWatts()
	}
	ch, err := NewChannel(pw, gain, DBm(-96).MilliWatts(), DB(10).Linear())
	if err != nil {
		tb.Fatal(err)
	}
	return ch
}

// randomLink draws a link with arbitrary endpoints — including self loops
// and endpoints shared with existing links — so the fuzz covers primary
// conflicts and infeasible members, not just greedy-style admissible sets.
func randomLink(rng *rand.Rand, n int) Link {
	return Link{From: rng.Intn(n), To: rng.Intn(n)}
}

// TestSlotStateAddRemoveMatchesFeasibleSet drives a SlotState through random
// CanAdd-gated adds (the greedy access pattern) with removals by
// Mark/Rollback (the protocols' tentative-admission undo), and asserts at
// every step that CanAdd(l) equals the naive FeasibleSet on the would-be
// union.
func TestSlotStateAddRemoveMatchesFeasibleSet(t *testing.T) {
	ch := lineChannel(t, 24, 35, 20)
	rng := rand.New(rand.NewSource(41))
	agreeAdds, agreeRejects, removes := 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		st := NewSlotState(ch)
		var mirror []Link
		marked := -1 // len(mirror) at the outstanding Mark
		for op := 0; op < 30; op++ {
			switch rng.Intn(6) {
			case 0:
				st.Mark()
				marked = len(mirror)
			case 1:
				if marked >= 0 {
					st.Rollback()
					removes += len(mirror) - marked
					mirror = mirror[:marked]
				}
			}
			a := rng.Intn(23)
			l := Link{a, a + 1}
			if rng.Intn(2) == 0 {
				l = l.Reverse()
			}
			want := ch.FeasibleSet(append(append([]Link(nil), mirror...), l))
			got := st.CanAdd(l)
			if got != want {
				t.Fatalf("trial %d op %d: CanAdd(%v) = %v, FeasibleSet(%v + it) = %v",
					trial, op, l, got, mirror, want)
			}
			if got {
				st.Add(l)
				mirror = append(mirror, l)
				agreeAdds++
			} else {
				agreeRejects++
			}
		}
		if st.Len() != len(mirror) {
			t.Fatalf("trial %d: Len = %d, mirror = %d", trial, st.Len(), len(mirror))
		}
	}
	if agreeAdds == 0 || agreeRejects == 0 || removes == 0 {
		t.Fatalf("fuzz did not exercise all paths: %d adds, %d rejects, %d removes",
			agreeAdds, agreeRejects, removes)
	}
}

// TestSlotStateOutcomesMatchHandshake fuzzes unconstrained adds —
// conflicting, duplicate, self-loop and hopeless links included, the
// protocol's tentative-admission pattern — with removals by Mark/Rollback,
// and asserts Outcomes equals the naive HandshakeOutcome on the same set
// after every mutation.
func TestSlotStateOutcomesMatchHandshake(t *testing.T) {
	ch := lineChannel(t, 20, 35, 20)
	rng := rand.New(rand.NewSource(43))
	removes := 0
	for trial := 0; trial < 150; trial++ {
		st := NewSlotState(ch)
		var mirror []Link
		marked := -1 // len(mirror) at the outstanding Mark
		for op := 0; op < 25; op++ {
			switch r := rng.Intn(6); {
			case r == 0:
				st.Mark()
				marked = len(mirror)
			case r == 1 && marked >= 0:
				st.Rollback()
				removes += len(mirror) - marked
				mirror = mirror[:marked]
			default:
				var l Link
				switch rng.Intn(5) {
				case 0: // arbitrary, possibly hopeless or a self loop
					l = randomLink(rng, 20)
				case 1: // duplicate an existing member
					if len(mirror) > 0 {
						l = mirror[rng.Intn(len(mirror))]
					} else {
						l = randomLink(rng, 20)
					}
				default: // a plausible short link
					a := rng.Intn(19)
					l = Link{a, a + 1}
				}
				st.Add(l)
				mirror = append(mirror, l)
			}
			got := st.Outcomes()
			want := ch.HandshakeOutcome(mirror)
			if len(got) != len(want) {
				t.Fatalf("trial %d op %d: %d outcomes for %d links", trial, op, len(got), len(mirror))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d op %d: outcome[%d] = %v, naive = %v, links = %v",
						trial, op, i, got[i], want[i], mirror)
				}
			}
		}
	}
	if removes == 0 {
		t.Fatal("fuzz never rolled back an admitted link")
	}
}

// TestSlotStateMarkRollback: Rollback must restore the exact pre-Mark state
// — links, endpoint occupancy and bit-identical interference sums — no
// matter what was tentatively admitted in between.
func TestSlotStateMarkRollback(t *testing.T) {
	ch := lineChannel(t, 24, 35, 20)
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 100; trial++ {
		st := NewSlotState(ch)
		for op := 0; op < 6; op++ {
			a := rng.Intn(23)
			if l := (Link{a, a + 1}); st.CanAdd(l) {
				st.Add(l)
			}
		}
		wantLinks := st.Links()
		wantData := append([]float64(nil), st.dataSum...)
		wantAck := append([]float64(nil), st.ackSum...)

		st.Mark()
		for op := 0; op < 5; op++ {
			st.Add(randomLink(rng, 24)) // unvetted: conflicts welcome
		}
		st.Outcomes() // force lazy conflict-count state into existence
		st.Rollback()

		gotLinks := st.Links()
		if len(gotLinks) != len(wantLinks) {
			t.Fatalf("trial %d: %d links after rollback, want %d", trial, len(gotLinks), len(wantLinks))
		}
		for i := range wantLinks {
			if gotLinks[i] != wantLinks[i] {
				t.Fatalf("trial %d: link[%d] = %v after rollback, want %v", trial, i, gotLinks[i], wantLinks[i])
			}
			if st.dataSum[i] != wantData[i] || st.ackSum[i] != wantAck[i] {
				t.Fatalf("trial %d: sums[%d] = (%v, %v) after rollback, want exactly (%v, %v)",
					trial, i, st.dataSum[i], st.ackSum[i], wantData[i], wantAck[i])
			}
		}
		for u, c := range st.busy {
			want := int32(0)
			for _, l := range wantLinks {
				if l.From == u {
					want++
				}
				if l.To == u {
					want++
				}
			}
			if c != want {
				t.Fatalf("trial %d: busy[%d] = %d after rollback, want %d", trial, u, c, want)
			}
		}
		// And the rolled-back state keeps agreeing with the reference.
		out := st.Outcomes()
		naive := ch.HandshakeOutcome(wantLinks)
		for i := range naive {
			if out[i] != naive[i] {
				t.Fatalf("trial %d: outcome[%d] diverged after rollback", trial, i)
			}
		}
	}
}

// TestSlotStateRollbackWithoutMarkPanics documents the API contract.
func TestSlotStateRollbackWithoutMarkPanics(t *testing.T) {
	ch := lineChannel(t, 4, 35, 20)
	st := NewSlotState(ch)
	defer func() {
		if recover() == nil {
			t.Fatal("Rollback without Mark should panic")
		}
	}()
	st.Rollback()
}

// buildSlotIncremental greedily fills one slot from candidates with the
// SlotState engine.
func buildSlotIncremental(ch *Channel, candidates []Link) int {
	st := NewSlotState(ch)
	for _, l := range candidates {
		if st.CanAdd(l) {
			st.Add(l)
		}
	}
	return st.Len()
}

// buildSlotNaive greedily fills one slot by re-running the naive FeasibleSet
// over the whole accumulated slot per candidate — the pre-engine hot path.
func buildSlotNaive(ch *Channel, candidates []Link) int {
	var slot []Link
	for _, l := range candidates {
		if ch.FeasibleSet(append(slot, l)) {
			slot = append(slot, l)
		}
	}
	return len(slot)
}

// BenchmarkSlotStateVsNaive quantifies the incremental engine against the
// naive full-recheck path on greedy single-slot construction over 64- and
// 256-node grids (candidates: all horizontal odd-even grid edges).
func BenchmarkSlotStateVsNaive(b *testing.B) {
	for _, side := range []int{8, 16} {
		ch := gridChannel(b, side, 40, 20)
		var candidates []Link
		for r := 0; r < side; r++ {
			for c := 0; c+1 < side; c += 2 {
				candidates = append(candidates, Link{From: r*side + c, To: r*side + c + 1})
			}
		}
		inc := buildSlotIncremental(ch, candidates)
		naive := buildSlotNaive(ch, candidates)
		if inc != naive || inc == 0 {
			b.Fatalf("side %d: incremental admits %d, naive %d", side, inc, naive)
		}
		name := map[int]string{8: "grid64", 16: "grid256"}[side]
		b.Run(name+"/incremental", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buildSlotIncremental(ch, candidates)
			}
		})
		b.Run(name+"/naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buildSlotNaive(ch, candidates)
			}
		})
	}
}
