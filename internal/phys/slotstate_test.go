package phys

// Property tests for the incremental SINR feasibility engine: SlotState and
// TentativeSlot must agree decision-for-decision with the naive reference
// implementations (FeasibleSet, HandshakeOutcome) over randomized
// add/rollback sequences, and Mark/Rollback must restore state exactly.

import (
	"fmt"
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
	s.Init(c)
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

// tentativeCase is a channel a TentativeSlot fuzz runs on, with the links it
// draws as plausible: on the line, neighbours; on a deployment, every link
// whose handshake succeeds alone.
type tentativeCase struct {
	name  string
	ch    *Channel
	short []Link
}

// tentativeCases returns a line of n nodes 35 m apart at 20 dBm, whose
// endpoints all transmit at one power, and the grid, heterogeneous-power and
// shadowed deployments of testDeployments, where a swapped power or a
// member's wrong endpoint changes a sum.
func tentativeCases(t *testing.T, n int) []tentativeCase {
	t.Helper()
	line := tentativeCase{name: "line", ch: lineChannel(t, n, 35, 20)}
	for a := 0; a+1 < n; a++ {
		line.short = append(line.short, Link{a, a + 1})
	}
	cases := []tentativeCase{line}
	const m = 25
	for _, d := range testDeployments(m, 5) {
		c := tentativeCase{name: d.name, ch: d.channel(t)}
		for u := 0; u < m; u++ {
			for v := 0; v < m; v++ {
				if l := (Link{u, v}); u != v && c.ch.HandshakeOutcome([]Link{l})[0] {
					c.short = append(c.short, l)
				}
			}
		}
		if len(c.short) == 0 {
			t.Fatalf("%s: no link succeeds alone", d.name)
		}
		cases = append(cases, c)
	}
	return cases
}

// assertSlotRecords fails unless st holds, bit for bit, the records a plain
// SlotState builds from links with NewCandidate, added in the same order:
// TentativeSlot.Add computes a candidate from the matrix itself, and a
// rolled-back slot must hold the sums its remaining adds produced.
func assertSlotRecords(t *testing.T, what string, ch *Channel, st *TentativeSlot, links []Link) {
	t.Helper()
	ref := newSlotState(ch)
	for _, l := range links {
		ref.Add(NewCandidate(ch, l))
	}
	if len(st.links) != len(ref.links) {
		t.Fatalf("%s: %d records, want %d", what, len(st.links), len(ref.links))
	}
	for i := range ref.links {
		if !sameRecord(st.links[i], ref.links[i]) {
			t.Fatalf("%s: record[%d] = %+v, SlotState.Add(NewCandidate) writes %+v", what, i, st.links[i], ref.links[i])
		}
	}
}

// TestSlotStateOutcomesMatchHandshake fuzzes unconstrained adds —
// conflicting, duplicate, self-loop and hopeless links included, the
// protocol's tentative-admission pattern — with removals by Mark/Rollback,
// on a line and on grid, heterogeneous-power and shadowed deployments. After
// every mutation Outcomes must equal the naive HandshakeOutcome on the same
// set, and the records must be the ones SlotState.Add(NewCandidate) writes.
func TestSlotStateOutcomesMatchHandshake(t *testing.T) {
	for _, tc := range tentativeCases(t, 20) {
		ch, n := tc.ch, tc.ch.NumNodes()
		rng := rand.New(rand.NewSource(43))
		removes, succeeded, failed := 0, 0, 0
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
						l = randomLink(rng, n)
					case 1: // duplicate an existing member
						if len(mirror) > 0 {
							l = mirror[rng.Intn(len(mirror))]
						} else {
							l = randomLink(rng, n)
						}
					default: // a plausible link
						l = tc.short[rng.Intn(len(tc.short))]
					}
					st.Add(l)
					mirror = append(mirror, l)
				}
				what := fmt.Sprintf("%s trial %d op %d", tc.name, trial, op)
				assertSlotRecords(t, what, ch, st, mirror)
				got := st.Outcomes()
				want := ch.HandshakeOutcome(mirror)
				if len(got) != len(want) {
					t.Fatalf("%s: %d outcomes for %d links", what, len(got), len(mirror))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: outcome[%d] = %v, naive = %v, links = %v",
							what, i, got[i], want[i], mirror)
					}
					if want[i] {
						succeeded++
					} else {
						failed++
					}
				}
			}
		}
		if removes == 0 || succeeded == 0 || failed == 0 {
			t.Fatalf("%s: fuzz did not exercise every path: %d removes, %d successes, %d failures",
				tc.name, removes, succeeded, failed)
		}
	}
}

// TestSlotStateMarkRollback: Rollback must restore the exact pre-Mark state
// — the link records with their signals and bit-identical interference
// sums, and endpoint occupancy — no matter what was tentatively admitted in
// between, on a line and on grid, heterogeneous-power and shadowed
// deployments.
func TestSlotStateMarkRollback(t *testing.T) {
	for _, tc := range tentativeCases(t, 24) {
		ch, n := tc.ch, tc.ch.NumNodes()
		rng := rand.New(rand.NewSource(53))
		for trial := 0; trial < 100; trial++ {
			what := fmt.Sprintf("%s trial %d", tc.name, trial)
			st := newTentativeSlot(ch)
			for op := 0; op < 6; op++ {
				if l := tc.short[rng.Intn(len(tc.short))]; st.CanAdd(NewCandidate(ch, l)) {
					st.Add(l)
				}
			}
			wantLinks := st.AppendLinks(nil)
			assertSlotRecords(t, what, ch, st, wantLinks)
			want := append([]slotLink(nil), st.links...)

			st.Mark()
			for op := 0; op < 5; op++ {
				st.Add(randomLink(rng, n)) // unvetted: conflicts welcome
			}
			st.Outcomes() // force lazy conflict-count state into existence
			st.Rollback()

			if len(st.links) != len(want) {
				t.Fatalf("%s: %d links after rollback, want %d", what, len(st.links), len(want))
			}
			for i, w := range want {
				if got := st.links[i]; !sameRecord(got, w) {
					t.Fatalf("%s: record[%d] = %+v after rollback, want exactly %+v", what, i, got, w)
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
					t.Fatalf("%s: busy[%d] = %d after rollback, want %d", what, u, c, want)
				}
			}
			// And the rolled-back state keeps agreeing with the reference.
			out := st.Outcomes()
			naive := ch.HandshakeOutcome(wantLinks)
			for i := range naive {
				if out[i] != naive[i] {
					t.Fatalf("%s: outcome[%d] diverged after rollback", what, i)
				}
			}
		}
	}
}

// opaqueEngine hides the dense *Channel behind the Engine interface: a
// SlotState bound to it takes the interface path while every query still
// returns the dense engine's exact values.
type opaqueEngine struct{ Engine }

// slotPair is a dense-path and an interface-path SlotState over the same
// exact values, driven through the same operations.
type slotPair struct {
	ch           *Channel
	opaque       opaqueEngine
	dense, iface SlotState

	admits, rejects, unvetted, resets int // what the fuzz exercised
}

func newSlotPair(ch *Channel) *slotPair {
	return &slotPair{ch: ch, opaque: opaqueEngine{ch}}
}

// init binds both states afresh.
func (p *slotPair) init(t *testing.T, dataOnly bool) {
	t.Helper()
	p.dense.Init(p.ch, dataOnly)
	p.iface.Init(p.opaque, dataOnly)
	if p.dense.ch == nil || p.iface.ch != nil {
		t.Fatal("the states do not take the two different paths")
	}
}

// step applies one operation to both states, picked by r in [0, 16): a
// CanAdd-gated Add when r < 12, an unvetted Add when r < 14 and a Reset
// otherwise. It fails unless their answers agree and their records are identical, bit
// for bit: the interface path's one-pass early exits may skip work, never
// change an answer or a sum.
func (p *slotPair) step(t *testing.T, what string, l Link, r int) {
	t.Helper()
	switch {
	case r < 12:
		got, want := p.iface.CanAdd(NewCandidate(p.opaque, l)), p.dense.CanAdd(NewCandidate(p.ch, l))
		if got != want {
			t.Fatalf("%s: CanAdd(%v) = %v on the interface path, %v on the dense path (slot %v)",
				what, l, got, want, p.dense.AppendLinks(nil))
		}
		if got {
			p.iface.Add(NewCandidate(p.opaque, l))
			p.dense.Add(NewCandidate(p.ch, l))
			p.admits++
		} else if l.From != l.To && p.dense.Len() > 0 && !slices.ContainsFunc(p.dense.AppendLinks(nil), l.SharesEndpoint) {
			p.rejects++
		}
	case r < 14: // unvetted: conflicts, self loops and hopeless links welcome
		p.iface.Add(NewCandidate(p.opaque, l))
		p.dense.Add(NewCandidate(p.ch, l))
		p.unvetted++
	default:
		p.iface.Reset()
		p.dense.Reset()
		p.resets++
	}
	if len(p.iface.links) != len(p.dense.links) {
		t.Fatalf("%s: %d links on the interface path, %d on the dense path", what, len(p.iface.links), len(p.dense.links))
	}
	for i := range p.dense.links {
		if !sameRecord(p.iface.links[i], p.dense.links[i]) {
			t.Fatalf("%s: record[%d] = %+v on the interface path, %+v on the dense path",
				what, i, p.iface.links[i], p.dense.links[i])
		}
	}
}

// exercised fails unless the fuzz admitted, rejected on SINR alone, added
// unvetted and reset.
func (p *slotPair) exercised(t *testing.T, what string) {
	t.Helper()
	if p.admits == 0 || p.rejects == 0 || p.unvetted == 0 || p.resets == 0 {
		t.Fatalf("%s: fuzz did not exercise every path: %d admits, %d SINR rejects, %d unvetted adds, %d resets",
			what, p.admits, p.rejects, p.unvetted, p.resets)
	}
	t.Logf("%s: %d admits, %d SINR rejects, %d unvetted adds, %d resets agreed", what, p.admits, p.rejects, p.unvetted, p.resets)
}

// TestSlotStateEnginePathMatchesDense drives a dense-path and an
// interface-path SlotState over the same exact values through the same
// random sequences of CanAdd, unvetted Add and Reset on a line, with and
// without the ACK inequality. The two must give the same CanAdd answers and
// hold bit-identical records after every step.
func TestSlotStateEnginePathMatchesDense(t *testing.T) {
	ch := lineChannel(t, 24, 35, 20)
	for _, dataOnly := range []bool{false, true} {
		rng := rand.New(rand.NewSource(61))
		p := newSlotPair(ch)
		for trial := 0; trial < 400; trial++ {
			p.init(t, dataOnly)
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
				p.step(t, fmt.Sprintf("dataOnly=%v trial %d op %d", dataOnly, trial, op), l, rng.Intn(16))
			}
		}
		p.exercised(t, fmt.Sprintf("dataOnly=%v", dataOnly))
	}
}

// TestSlotStateDenseMatchesEngineDeployments drives a dense-path and an
// interface-path SlotState through the same random CanAdd, unvetted Add and
// Reset sequences on grid, heterogeneous-power and shadowed deployments. The
// dense path reads both directions of a pair from the candidate's gain rows
// and the interface path asks for two gains per member; both take the
// members' powers from their records. With unequal powers a swapped power
// or gain changes a sum, which the bit-for-bit record comparison catches.
func TestSlotStateDenseMatchesEngineDeployments(t *testing.T) {
	const n = 25
	rng := rand.New(rand.NewSource(67))
	for _, d := range testDeployments(n, 5) {
		p := newSlotPair(d.channel(t))
		for trial := 0; trial < 150; trial++ {
			p.init(t, false)
			for op := 0; op < 30; op++ {
				p.step(t, fmt.Sprintf("%s trial %d op %d", d.name, trial, op), randomLink(rng, n), rng.Intn(16))
			}
		}
		p.exercised(t, d.name)
	}
}

// sameRecord reports whether two slot records are identical, with every
// float compared bit for bit.
func sameRecord(a, b slotLink) bool {
	bits := math.Float64bits
	return a.link() == b.link() && bits(a.dataMW) == bits(b.dataMW) && bits(a.ackMW) == bits(b.ackMW) &&
		bits(a.fromMW) == bits(b.fromMW) && bits(a.toMW) == bits(b.toMW) &&
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
