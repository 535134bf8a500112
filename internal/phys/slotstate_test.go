package phys

// Property tests for the incremental SINR feasibility engine: SlotState and
// TentativeSlot must agree decision-for-decision with the naive reference
// implementations (FeasibleSet, HandshakeOutcome) over randomized
// add/rollback sequences, and Mark/Rollback must restore state exactly.

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"scream/internal/geom"
)

// gridChannel builds a channel with side*side nodes on a square grid, step
// meters apart, homogeneous power, default propagation.
func gridChannel(tb testing.TB, side int, step float64, txDBm DBm) *Channel {
	tb.Helper()
	n := side * side
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i%side) * step, Y: float64(i/side) * step}
	}
	gain := BuildGainMatrix(pos, DefaultLogDistance(), nil)
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

// newSlotState returns an empty slot bound to channel c.
func newSlotState(c *Channel) *SlotState {
	s := new(SlotState)
	s.Init(c, false)
	return s
}

// newTentativeSlot returns an empty tentative slot bound to channel c.
func newTentativeSlot(c *Channel) *TentativeSlot {
	s := new(TentativeSlot)
	s.Init(c, false)
	return s
}

// TestSlotStateSize pins the size of the state greedy builders keep one of
// per (slot, channel): the protocols' Mark/Rollback/Outcomes scratch lives
// in TentativeSlot, and the dense path holds the channel, not matrix
// headers.
func TestSlotStateSize(t *testing.T) {
	if size := unsafe.Sizeof(SlotState{}); size >= 416 {
		t.Fatalf("SlotState is %d bytes, want under 416", size)
	}
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
		st := newTentativeSlot(ch)
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
				l = l.reverse()
			}
			want := ch.FeasibleSet(append(append([]Link(nil), mirror...), l))
			got := st.CanAdd(NewCandidate(ch, l))
			if got != want {
				t.Fatalf("trial %d op %d: CanAdd(%v) = %v, FeasibleSet(%v + it) = %v",
					trial, op, l, got, mirror, want)
			}
			if got {
				st.Add(NewCandidate(ch, l))
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
		st := newTentativeSlot(ch)
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
				st.Add(NewCandidate(ch, l))
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
// — the link records with their signals and bit-identical interference
// sums, and endpoint occupancy — no matter what was tentatively admitted in
// between.
func TestSlotStateMarkRollback(t *testing.T) {
	ch := lineChannel(t, 24, 35, 20)
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 100; trial++ {
		st := newTentativeSlot(ch)
		for op := 0; op < 6; op++ {
			a := rng.Intn(23)
			if c := NewCandidate(ch, Link{a, a + 1}); st.CanAdd(c) {
				st.Add(c)
			}
		}
		wantLinks := st.AppendLinks(nil)
		want := append([]slotLink(nil), st.links...)

		st.Mark()
		for op := 0; op < 5; op++ {
			st.Add(NewCandidate(ch, randomLink(rng, 24))) // unvetted: conflicts welcome
		}
		st.Outcomes() // force lazy conflict-count state into existence
		st.Rollback()

		if len(st.links) != len(want) {
			t.Fatalf("trial %d: %d links after rollback, want %d", trial, len(st.links), len(want))
		}
		for i, w := range want {
			if got := st.links[i]; !sameRecord(got, w) {
				t.Fatalf("trial %d: record[%d] = %+v after rollback, want exactly %+v", trial, i, got, w)
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

// opaqueEngine hides the dense *Channel behind the Engine interface: a
// SlotState bound to it takes the interface path while every query still
// returns the dense engine's exact values.
type opaqueEngine struct{ Engine }

// TestSlotStateEnginePathMatchesDense drives a dense-path and an
// interface-path SlotState over the same exact values through the same
// random sequences of CanAdd, unvetted Add, Mark, Rollback, Outcomes and
// Reset, with and without the ACK inequality. The two must give the same
// CanAdd answers and Outcomes vectors and hold bit-identical records after
// every step: the interface path's reordered tests and prefix early exits
// may skip work, never change an answer or a sum.
func TestSlotStateEnginePathMatchesDense(t *testing.T) {
	ch := lineChannel(t, 24, 35, 20)
	opaque := opaqueEngine{ch}
	for _, dataOnly := range []bool{false, true} {
		rng := rand.New(rand.NewSource(61))
		var dense, iface TentativeSlot
		admits, sinrRejects, rollbacks, failedOutcomes := 0, 0, 0, 0
		for trial := 0; trial < 400; trial++ {
			dense.Init(ch, dataOnly)
			iface.Init(opaque, dataOnly)
			if dense.ch == nil || iface.ch != nil {
				t.Fatal("the states do not take the two different paths")
			}
			marked := -1 // Len at the outstanding Mark
			for op := 0; op < 40; op++ {
				var l Link
				if rng.Intn(3) > 0 {
					a := rng.Intn(23)
					l = Link{a, a + 1}
					if rng.Intn(2) == 0 {
						l = l.reverse()
					}
				} else {
					l = randomLink(rng, 24)
				}
				switch r := rng.Intn(20); {
				case r < 12:
					got, want := iface.CanAdd(NewCandidate(opaque, l)), dense.CanAdd(NewCandidate(ch, l))
					if got != want {
						t.Fatalf("dataOnly=%v trial %d op %d: CanAdd(%v) = %v on the interface path, %v on the dense path (slot %v)",
							dataOnly, trial, op, l, got, want, dense.AppendLinks(nil))
					}
					if got {
						iface.Add(NewCandidate(opaque, l))
						dense.Add(NewCandidate(ch, l))
						admits++
					} else if l.From != l.To && dense.Len() > 0 && !slices.ContainsFunc(dense.AppendLinks(nil), l.SharesEndpoint) {
						sinrRejects++
					}
				case r < 14: // unvetted: conflicts, self loops and hopeless links welcome
					iface.Add(NewCandidate(opaque, l))
					dense.Add(NewCandidate(ch, l))
				case r < 16:
					iface.Mark()
					dense.Mark()
					marked = dense.Len()
				case r < 18:
					if marked >= 0 {
						iface.Rollback()
						dense.Rollback()
						rollbacks++
					}
				case r < 19:
					got, want := iface.Outcomes(), dense.Outcomes()
					if !slices.Equal(got, want) {
						t.Fatalf("dataOnly=%v trial %d op %d: Outcomes %v on the interface path, %v on the dense path (slot %v)",
							dataOnly, trial, op, got, want, dense.AppendLinks(nil))
					}
					if slices.Contains(want, false) {
						failedOutcomes++
					}
				default:
					iface.Reset()
					dense.Reset()
					marked = -1
				}
				if len(iface.links) != len(dense.links) {
					t.Fatalf("dataOnly=%v trial %d op %d: %d links on the interface path, %d on the dense path",
						dataOnly, trial, op, len(iface.links), len(dense.links))
				}
				for i := range dense.links {
					if !sameRecord(iface.links[i], dense.links[i]) {
						t.Fatalf("dataOnly=%v trial %d op %d: record[%d] = %+v on the interface path, %+v on the dense path",
							dataOnly, trial, op, i, iface.links[i], dense.links[i])
					}
				}
			}
		}
		if admits == 0 || sinrRejects == 0 || rollbacks == 0 || failedOutcomes == 0 {
			t.Fatalf("dataOnly=%v: fuzz did not exercise every path: %d admits, %d SINR rejects, %d rollbacks, %d failing outcomes",
				dataOnly, admits, sinrRejects, rollbacks, failedOutcomes)
		}
		t.Logf("dataOnly=%v: %d admits, %d SINR rejects, %d rollbacks, %d failing outcomes agreed",
			dataOnly, admits, sinrRejects, rollbacks, failedOutcomes)
	}
}

// TestSlotStateDenseMatchesEngineDeployments drives a dense-path and an
// interface-path TentativeSlot through the same random CanAdd, unvetted
// Add, Mark/Rollback and Outcomes sequences on grid, heterogeneous-power
// and shadowed deployments. The dense path reads both directions of a pair
// from the candidate's gain rows and the members' powers from their
// records; with unequal powers a swapped power or a transposed read changes
// a sum, which the bit-for-bit record comparison catches.
func TestSlotStateDenseMatchesEngineDeployments(t *testing.T) {
	const n = 25
	rng := rand.New(rand.NewSource(67))
	for _, d := range testDeployments(n, 5) {
		ch := d.channel(t)
		opaque := opaqueEngine{ch}
		var dense, iface TentativeSlot
		admits, failed := 0, 0
		for trial := 0; trial < 150; trial++ {
			dense.Init(ch, false)
			iface.Init(opaque, false)
			marked := false
			for op := 0; op < 30; op++ {
				l := randomLink(rng, n)
				switch r := rng.Intn(10); {
				case r < 5:
					got, want := iface.CanAdd(NewCandidate(opaque, l)), dense.CanAdd(NewCandidate(ch, l))
					if got != want {
						t.Fatalf("%s trial %d op %d: CanAdd(%v) = %v on the interface path, %v dense", d.name, trial, op, l, got, want)
					}
					if got {
						iface.Add(NewCandidate(opaque, l))
						dense.Add(NewCandidate(ch, l))
						admits++
					}
				case r < 7:
					iface.Add(NewCandidate(opaque, l))
					dense.Add(NewCandidate(ch, l))
				case r < 8:
					iface.Mark()
					dense.Mark()
					marked = true
				case r < 9:
					if marked {
						iface.Rollback()
						dense.Rollback()
					}
				default:
					got, want := iface.Outcomes(), dense.Outcomes()
					if !slices.Equal(got, want) {
						t.Fatalf("%s trial %d op %d: Outcomes %v on the interface path, %v dense", d.name, trial, op, got, want)
					}
					if slices.Contains(want, false) {
						failed++
					}
				}
				for i := range dense.links {
					if !sameRecord(iface.links[i], dense.links[i]) {
						t.Fatalf("%s trial %d op %d: record[%d] = %+v on the interface path, %+v dense",
							d.name, trial, op, i, iface.links[i], dense.links[i])
					}
				}
			}
		}
		if admits == 0 || failed == 0 {
			t.Fatalf("%s: %d admits, %d failing outcomes; the fuzz must exercise both", d.name, admits, failed)
		}
	}
}

// sameRecord reports whether two slot records are identical, with every
// float compared bit for bit.
func sameRecord(a, b slotLink) bool {
	bits := math.Float64bits
	return a.link() == b.link() && bits(a.dataMW) == bits(b.dataMW) && bits(a.ackMW) == bits(b.ackMW) &&
		bits(a.dataSum) == bits(b.dataSum) && bits(a.ackSum) == bits(b.ackSum)
}

// TestSlotStateRollbackWithoutMarkPanics documents the API contract.
func TestSlotStateRollbackWithoutMarkPanics(t *testing.T) {
	ch := lineChannel(t, 4, 35, 20)
	st := newTentativeSlot(ch)
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
	st := newSlotState(ch)
	for _, l := range candidates {
		if c := NewCandidate(ch, l); st.CanAdd(c) {
			st.Add(c)
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
