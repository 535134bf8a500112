package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"scream/internal/des"
	"scream/internal/phys"
	"scream/internal/route"
	"scream/internal/sched"
	"scream/internal/topo"
	"scream/internal/traffic"
)

// fixture bundles a network, its routing forest links/demands and an ideal
// backend factory.
type fixture struct {
	net     *topo.Network
	links   []phys.Link
	demands []int
}

func gridFixture(t testing.TB, dim int, seed int64) *fixture {
	t.Helper()
	net, err := topo.NewGrid(topo.GridConfig{Rows: dim, Cols: dim, Step: 30, Params: topo.DefaultParams()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return forestFixture(t, net, []int{0}, rand.New(rand.NewSource(seed)))
}

// uniformFixture is an unplanned deployment: 36 nodes placed uniformly with
// heterogeneous transmit power, gateways at the first and last node.
func uniformFixture(t testing.TB, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := topo.NewUniform(topo.UniformConfig{
		N: 36, Side: 180, MinTxDBm: 16, MaxTxDBm: 22, Params: topo.DefaultParams(),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return forestFixture(t, net, []int{0, net.NumNodes() - 1}, rng)
}

// forestFixture routes net to the gateways and aggregates uniform per-node
// demands in [1, 10] onto the forest links.
func forestFixture(t testing.TB, net *topo.Network, gateways []int, rng *rand.Rand) *fixture {
	t.Helper()
	f, err := route.BuildForest(net.Comm, gateways, rng)
	if err != nil {
		t.Fatal(err)
	}
	nodeDemand, err := traffic.Uniform(net.NumNodes(), 1, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	links := f.Links()
	demands, err := f.LinkDemands(links, nodeDemand)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{net: net, links: links, demands: demands}
}

func (fx *fixture) backend(t testing.TB, k int, strict bool) *IdealBackend {
	t.Helper()
	if k == 0 {
		k = fx.net.InterferenceDiameter()
	}
	b, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, k, DefaultTiming(), strict)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTimingDurations(t *testing.T) {
	tm := DefaultTiming()
	if tm.TxTime(0) != 0 {
		t.Error("zero bytes should take zero time")
	}
	// 15 bytes at 54 Mb/s = 2.22 us.
	got := tm.TxTime(15)
	want := des.FromSeconds(15 * 8 / 54e6)
	if got != want {
		t.Errorf("TxTime(15) = %v, want %v", got, want)
	}
	if tm.Guard() != 4*tm.SkewBound {
		t.Error("guard must be 4x skew")
	}
	if tm.TxDelay() != 2*tm.SkewBound {
		t.Error("tx delay must be 2x skew")
	}
	if tm.HandshakeSlot() != tm.DataSubSlot()+tm.AckSubSlot() {
		t.Error("handshake slot must be the two sub-slots")
	}
	if tm.ScreamSlot() <= tm.Guard() {
		t.Error("scream slot must include payload time")
	}
	zero := Timing{}
	if zero.TxTime(100) != 0 {
		t.Error("zero bitrate should yield zero txtime, not a division blowup")
	}
}

func TestIdealBackendConstruction(t *testing.T) {
	fx := gridFixture(t, 4, 1)
	id := fx.net.InterferenceDiameter()
	if _, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, id, DefaultTiming(), false); err != nil {
		t.Errorf("k = ID should be accepted: %v", err)
	}
	if _, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, id-1, DefaultTiming(), false); err == nil {
		t.Error("k < ID must be rejected in fast mode")
	}
	if _, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, id-1, DefaultTiming(), true); err != nil {
		t.Errorf("strict mode should allow k < ID (to observe failure): %v", err)
	}
	for _, strict := range []bool{false, true} {
		b, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, 0, DefaultTiming(), strict)
		if err != nil {
			t.Errorf("strict=%v: k = 0 must derive ID: %v", strict, err)
		} else if b.K() != id {
			t.Errorf("strict=%v: k = 0 derived %d, want ID = %d", strict, b.K(), id)
		}
	}
	if _, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, -1, DefaultTiming(), true); err == nil {
		t.Error("k < 0 must be rejected")
	}
}

func TestScreamComputesOR(t *testing.T) {
	fx := gridFixture(t, 5, 2)
	rng := rand.New(rand.NewSource(5))
	for _, strict := range []bool{false, true} {
		b := fx.backend(t, 0, strict)
		n := b.NumNodes()
		for trial := 0; trial < 30; trial++ {
			vars := make([]bool, n)
			expect := false
			for i := range vars {
				if rng.Intn(8) == 0 {
					vars[i] = true
					expect = true
				}
			}
			got := b.Scream(vars)
			for i, g := range got {
				if g != expect {
					t.Fatalf("strict=%v trial %d: node %d got %v, want OR=%v", strict, trial, i, g, expect)
				}
			}
		}
	}
}

func TestScreamStrictMatchesFast(t *testing.T) {
	fx := gridFixture(t, 4, 3)
	fast := fx.backend(t, 0, false)
	strict := fx.backend(t, 0, true)
	rng := rand.New(rand.NewSource(7))
	n := fast.NumNodes()
	for trial := 0; trial < 50; trial++ {
		vars := make([]bool, n)
		for i := range vars {
			vars[i] = rng.Intn(4) == 0
		}
		a, s := fast.Scream(vars), strict.Scream(vars)
		for i := range a {
			if a[i] != s[i] {
				t.Fatalf("fast and strict disagree at node %d (trial %d)", i, trial)
			}
		}
	}
}

func TestScreamKTooSmallFailsOnLine(t *testing.T) {
	// On a line of n nodes with single-step sensitivity, a scream from one
	// end needs n-1 slots to reach the other: K = ID-1 must leave the far
	// node uninformed (the K >= ID requirement of Section IV-B).
	net, err := topo.NewLine(10, 30, topo.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	id := net.InterferenceDiameter() // 9
	b, err := NewIdealBackend(net.Channel, net.Sens, id-1, DefaultTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]bool, 10)
	vars[0] = true
	got := b.Scream(vars)
	if got[9] {
		t.Error("K = ID-1 should fail to reach the far end of the line")
	}
	if !got[8] {
		t.Error("K = ID-1 should still reach node 8")
	}
	b2, err := NewIdealBackend(net.Channel, net.Sens, id, DefaultTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.Scream(vars); !got[9] {
		t.Error("K = ID must reach every node")
	}
}

func TestScreamAllFalse(t *testing.T) {
	fx := gridFixture(t, 4, 4)
	for _, strict := range []bool{false, true} {
		b := fx.backend(t, 0, strict)
		got := b.Scream(make([]bool, b.NumNodes()))
		for i, g := range got {
			if g {
				t.Errorf("strict=%v: silent network should stay false at node %d", strict, i)
			}
		}
	}
}

func TestScreamTimeAccounting(t *testing.T) {
	fx := gridFixture(t, 4, 5)
	k := fx.net.InterferenceDiameter()
	b := fx.backend(t, k, false)
	before := b.Elapsed()
	b.Scream(make([]bool, b.NumNodes()))
	want := des.Time(k) * DefaultTiming().ScreamSlot()
	if got := b.Elapsed() - before; got != want {
		t.Errorf("one SCREAM costs %v, want %v", got, want)
	}
	b.HandshakeSlot(nil)
	if got := b.Elapsed() - before - want; got != DefaultTiming().HandshakeSlot() {
		t.Errorf("handshake slot cost %v, want %v", got, DefaultTiming().HandshakeSlot())
	}
}

func TestRunScreamSlotsRelayGrowth(t *testing.T) {
	// Simulated line detection: node i hears i-1 and i+1.
	n := 6
	slot := func(s []bool) []bool {
		det := make([]bool, n)
		for v := 0; v < n; v++ {
			if v > 0 && s[v-1] {
				det[v] = true
			}
			if v < n-1 && s[v+1] {
				det[v] = true
			}
		}
		return det
	}
	vars := make([]bool, n)
	vars[0] = true
	got := RunScreamSlots(3, vars, slot)
	want := []bool{true, true, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after 3 slots relay = %v, want %v", got, want)
		}
	}
	// Input slice must not be mutated.
	if vars[1] {
		t.Error("RunScreamSlots must not mutate its input")
	}
}

func TestIDBitsFor(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {64, 6}, {65, 7}, {100, 7},
	}
	for _, tt := range tests {
		if got := IDBitsFor(tt.n); got != tt.want {
			t.Errorf("IDBitsFor(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestLeaderElectHighestIDWins(t *testing.T) {
	fx := gridFixture(t, 4, 6)
	b := fx.backend(t, 0, false)
	n := b.NumNodes()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	if got := LeaderElect(b, IDBitsFor(n), ids, all); got != n-1 {
		t.Errorf("winner = %d, want %d", got, n-1)
	}
}

func TestLeaderElectSubset(t *testing.T) {
	fx := gridFixture(t, 4, 7)
	b := fx.backend(t, 0, false)
	n := b.NumNodes()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	part := make([]bool, n)
	part[3], part[7], part[11] = true, true, true
	if got := LeaderElect(b, IDBitsFor(n), ids, part); got != 11 {
		t.Errorf("winner = %d, want 11", got)
	}
}

func TestLeaderElectNoParticipants(t *testing.T) {
	fx := gridFixture(t, 4, 8)
	b := fx.backend(t, 0, false)
	if got := LeaderElect(b, 6, make([]uint64, b.NumNodes()), make([]bool, b.NumNodes())); got != -1 {
		t.Errorf("winner = %d, want -1", got)
	}
}

func TestLeaderElectRandomSubsetsProperty(t *testing.T) {
	fx := gridFixture(t, 5, 9)
	b := fx.backend(t, 0, false)
	n := b.NumNodes()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i * 3) // non-trivial but unique and ordered
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		part := make([]bool, n)
		want := -1
		for i := range part {
			if rng.Intn(3) == 0 {
				part[i] = true
				if want < 0 || ids[i] > ids[want] {
					want = i
				}
			}
		}
		if got := LeaderElect(b, IDBitsFor(3*n), ids, part); got != want {
			t.Fatalf("trial %d: winner = %d, want %d", trial, got, want)
		}
	}
}

func TestLeaderElectStrictBackend(t *testing.T) {
	fx := gridFixture(t, 4, 11)
	b := fx.backend(t, 0, true)
	n := b.NumNodes()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	if got := LeaderElect(b, IDBitsFor(n), ids, all); got != n-1 {
		t.Errorf("strict-backend winner = %d, want %d", got, n-1)
	}
}

// bitwiseBackend forwards the four Backend methods to an IdealBackend. It
// hides the concrete type, so LeaderElect runs the bitwise loop over the
// same fast SCREAMs its one-pass election stands in for.
type bitwiseBackend struct{ b *IdealBackend }

func (w bitwiseBackend) NumNodes() int                          { return w.b.NumNodes() }
func (w bitwiseBackend) Scream(vars []bool) []bool              { return w.b.Scream(vars) }
func (w bitwiseBackend) HandshakeSlot(links []phys.Link) []bool { return w.b.HandshakeSlot(links) }
func (w bitwiseBackend) Elapsed() des.Time                      { return w.b.Elapsed() }

func TestLeaderElectFastMatchesBitwise(t *testing.T) {
	fx := gridFixture(t, 4, 21)
	fast, loop := fx.backend(t, 0, false), fx.backend(t, 0, false)
	n := fast.NumNodes()
	rng := rand.New(rand.NewSource(22))
	idKinds := []struct {
		name string
		id   func(i int) uint64
	}{
		{"unique", func(i int) uint64 { return uint64(i) }},
		{"duplicate", func(int) uint64 { return uint64(rng.Intn(4)) }},
		// Wider than idBits: the masked low bits decide the election, the
		// full ID only breaks ties among them.
		{"wide", func(int) uint64 { return rng.Uint64() }},
		{"wide_ties", func(int) uint64 { return uint64(rng.Intn(8))<<40 | uint64(rng.Intn(2)) }},
	}
	for _, idBits := range []int{-1, 0, 1, IDBitsFor(n), 64} {
		for _, kind := range idKinds {
			for trial := 0; trial < 40; trial++ {
				ids := make([]uint64, n)
				part := make([]bool, n)
				density := rng.Float64()
				for i := range ids {
					ids[i] = kind.id(i)
					// Trial 0 is the empty set, trial 1 everyone.
					part[i] = trial == 1 || (trial > 1 && rng.Float64() < density)
				}
				want := LeaderElect(bitwiseBackend{loop}, idBits, ids, part)
				got := LeaderElect(fast, idBits, ids, part)
				if got != want {
					t.Fatalf("idBits=%d %s trial %d: one-pass winner %d, bitwise winner %d (ids %v, part %v)",
						idBits, kind.name, trial, got, want, ids, part)
				}
				if trial == 0 && got != -1 {
					t.Fatalf("idBits=%d %s: empty election won by %d", idBits, kind.name, got)
				}
				if fast.ScreamCount() != loop.ScreamCount() || fast.Elapsed() != loop.Elapsed() {
					t.Fatalf("idBits=%d %s trial %d: one-pass billed %d screams / %v, bitwise %d / %v",
						idBits, kind.name, trial, fast.ScreamCount(), fast.Elapsed(), loop.ScreamCount(), loop.Elapsed())
				}
			}
		}
	}
}

// TestLeaderElectTieBreak pins the documented outcome on hand-built IDs:
// the largest low idBits bits win, then the highest full ID, then the
// highest node index.
func TestLeaderElectTieBreak(t *testing.T) {
	fx := gridFixture(t, 4, 24)
	n := fx.net.NumNodes()
	cases := []struct {
		name   string
		idBits int
		ids    map[int]uint64 // participants and their IDs
		want   int
	}{
		{"duplicate max, higher index wins", 64, map[int]uint64{1: 5, 4: 7, 9: 7, 12: 3}, 9},
		{"masked tie, higher full ID wins", 2, map[int]uint64{2: 1<<8 | 3, 6: 2<<8 | 3, 11: 3}, 6},
		{"mask decides over the full ID", 2, map[int]uint64{3: 2<<8 | 1, 8: 1<<8 | 3}, 8},
		{"no bits screamed, full ID then index", 0, map[int]uint64{0: 9, 5: 4, 13: 9}, 13},
	}
	for _, c := range cases {
		ids := make([]uint64, n)
		part := make([]bool, n)
		for i, id := range c.ids {
			ids[i], part[i] = id, true
		}
		for _, b := range []struct {
			name string
			b    Backend
		}{
			{"fast", fx.backend(t, 0, false)},
			{"strict", fx.backend(t, 0, true)},
			{"bitwise", bitwiseBackend{fx.backend(t, 0, false)}},
		} {
			if got := LeaderElect(b.b, c.idBits, ids, part); got != c.want {
				t.Errorf("%s, %s backend: winner %d, want %d", c.name, b.name, got, c.want)
			}
		}
	}
}

// TestFastPathsAllocateNothing gates the fast-mode control plane at zero
// allocations. allocs/op is deterministic, so a regression fails here
// instead of hiding in benchmark noise.
func TestFastPathsAllocateNothing(t *testing.T) {
	fx := gridFixture(t, 4, 23)
	b := fx.backend(t, 0, false)
	n := b.NumNodes()
	none, one := make([]bool, n), make([]bool, n)
	one[n/2] = true
	ids := make([]uint64, n)
	part := make([]bool, n)
	for i := range ids {
		ids[i] = uint64(i)
		part[i] = i%3 != 0
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Scream(all false)", func() { b.Scream(none) }},
		{"Scream(one true)", func() { b.Scream(one) }},
		{"LeaderElect", func() { LeaderElect(b, IDBitsFor(n), ids, part) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

func TestFDDVerifiesAndTerminates(t *testing.T) {
	fx := gridFixture(t, 5, 12)
	res, err := Run(Config{
		Variant: FDD,
		Links:   fx.links,
		Demands: fx.demands,
		Backend: fx.backend(t, 0, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(fx.net.Channel, fx.links, fx.demands); err != nil {
		t.Fatalf("FDD schedule invalid: %v", err)
	}
	if res.Rounds != res.Schedule.Length() {
		t.Errorf("rounds %d != schedule length %d", res.Rounds, res.Schedule.Length())
	}
	if res.ExecTime <= 0 {
		t.Error("execution time must be positive")
	}
	t.Logf("FDD: %d slots, %d steps, %d elections, %d screams, %v",
		res.Schedule.Length(), res.Steps, res.Elections, res.Screams, res.ExecTime)
}

func TestPDDVerifiesAndTerminates(t *testing.T) {
	fx := gridFixture(t, 5, 13)
	for _, p := range []float64{0.2, 0.6, 0.8, 1.0} {
		res, err := Run(Config{
			Variant:     PDD,
			Links:       fx.links,
			Demands:     fx.demands,
			Backend:     fx.backend(t, 0, false),
			Probability: p,
			RNG:         rand.New(rand.NewSource(14)),
		})
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if err := res.Schedule.Verify(fx.net.Channel, fx.links, fx.demands); err != nil {
			t.Fatalf("p=%v: PDD schedule invalid: %v", p, err)
		}
	}
}

// TestTheorem4FDDEqualsGreedyPhysical is the reproduction of the paper's
// Theorem 4: FDD computes slot-for-slot the same schedule as the centralized
// GreedyPhysical with edges ordered by decreasing head ID.
func TestTheorem4FDDEqualsGreedyPhysical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		fx := gridFixture(t, 5, seed)
		res, err := Run(Config{
			Variant: FDD,
			Links:   fx.links,
			Demands: fx.demands,
			Backend: fx.backend(t, 0, false),
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sched.GreedyPhysical(fx.net.Channel, fx.links, fx.demands, sched.ByHeadIDDesc)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedule.Equal(want) {
			t.Fatalf("seed %d: FDD schedule differs from centralized GreedyPhysical (FDD %d slots, greedy %d)",
				seed, res.Schedule.Length(), want.Length())
		}
	}
}

func TestTheorem4HoldsOnUniformTopology(t *testing.T) {
	fx := uniformFixture(t, 77)
	res, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.GreedyPhysical(fx.net.Channel, fx.links, fx.demands, sched.ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.Equal(want) {
		t.Fatal("Theorem 4 equality failed on heterogeneous uniform topology")
	}
	if err := res.Schedule.Verify(fx.net.Channel, fx.links, fx.demands); err != nil {
		t.Fatal(err)
	}
}

func TestPDDWorseOrEqualFDDOnAverage(t *testing.T) {
	// The paper reports PDD about 10-15 points worse than FDD. Averaged
	// over seeds, PDD (p=0.8) must not beat FDD by any meaningful margin.
	fddTotal, pddTotal := 0, 0
	for seed := int64(0); seed < 5; seed++ {
		fx := gridFixture(t, 5, 20+seed)
		fdd, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false)})
		if err != nil {
			t.Fatal(err)
		}
		pdd, err := Run(Config{
			Variant: PDD, Links: fx.links, Demands: fx.demands,
			Backend: fx.backend(t, 0, false), Probability: 0.8,
			RNG: rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			t.Fatal(err)
		}
		fddTotal += fdd.Schedule.Length()
		pddTotal += pdd.Schedule.Length()
	}
	if pddTotal < fddTotal*95/100 {
		t.Errorf("PDD (%d total slots) should not beat FDD (%d) by >5%%", pddTotal, fddTotal)
	}
	t.Logf("total slots over 5 seeds: FDD %d, PDD(0.8) %d", fddTotal, pddTotal)
}

func TestPDDFasterThanFDD(t *testing.T) {
	fx := gridFixture(t, 5, 30)
	fdd, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	pdd, err := Run(Config{
		Variant: PDD, Links: fx.links, Demands: fx.demands,
		Backend: fx.backend(t, 0, false), Probability: 0.2,
		RNG: rand.New(rand.NewSource(31)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if pdd.ExecTime >= fdd.ExecTime {
		t.Errorf("PDD (%v) should run faster than FDD (%v): elections dominate", pdd.ExecTime, fdd.ExecTime)
	}
}

func TestTheorem5RoundBound(t *testing.T) {
	// Rounds <= TD (each round schedules at least the controller's edge).
	fx := gridFixture(t, 5, 40)
	td := sched.LinearLength(fx.demands)
	res, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > td {
		t.Errorf("rounds %d exceeds TD %d", res.Rounds, td)
	}
	// Per-round cost: at most (n+1) elections + O(n) screams; total scream
	// count must be O(rounds * n * idBits) — the Theorem 5 accounting.
	n := fx.net.NumNodes()
	idBits := IDBitsFor(n)
	bound := res.Rounds * (n + 2) * (idBits + 2)
	if res.Screams > bound {
		t.Errorf("screams %d exceed Theorem 5 accounting bound %d", res.Screams, bound)
	}
}

func TestRunConfigValidation(t *testing.T) {
	fx := gridFixture(t, 4, 50)
	b := fx.backend(t, 0, false)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"bad variant", Config{Links: fx.links, Demands: fx.demands, Backend: b}},
		{"mismatched demands", Config{Variant: FDD, Links: fx.links, Demands: fx.demands[:1], Backend: b}},
		{"pdd no rng", Config{Variant: PDD, Probability: 0.5, Links: fx.links, Demands: fx.demands, Backend: b}},
		{"pdd bad p", Config{Variant: PDD, Probability: 1.5, RNG: rand.New(rand.NewSource(1)), Links: fx.links, Demands: fx.demands, Backend: b}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestRunRejectsDuplicateOwner(t *testing.T) {
	fx := gridFixture(t, 4, 51)
	links := append([]phys.Link(nil), fx.links...)
	links[1] = phys.Link{From: links[0].From, To: links[0].To} // duplicate owner
	demands := append([]int(nil), fx.demands...)
	if _, err := Run(Config{Variant: FDD, Links: links, Demands: demands, Backend: fx.backend(t, 0, false)}); err == nil {
		t.Error("duplicate owner must be rejected")
	}
}

func TestRunZeroDemand(t *testing.T) {
	fx := gridFixture(t, 4, 52)
	demands := make([]int, len(fx.links))
	res, err := Run(Config{Variant: FDD, Links: fx.links, Demands: demands, Backend: fx.backend(t, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Length() != 0 {
		t.Errorf("zero demand should yield empty schedule, got %d slots", res.Schedule.Length())
	}
}

func TestASAPSealAblation(t *testing.T) {
	fx := gridFixture(t, 5, 53)
	normal, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	asap, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false), ASAPSeal: true})
	if err != nil {
		t.Fatal(err)
	}
	if !normal.Schedule.Equal(asap.Schedule) {
		t.Error("ASAP seal must not change the computed schedule")
	}
	if asap.ExecTime >= normal.ExecTime {
		t.Errorf("ASAP seal should be faster: %v vs %v", asap.ExecTime, normal.ExecTime)
	}
	if err := asap.Schedule.Verify(fx.net.Channel, fx.links, fx.demands); err != nil {
		t.Fatal(err)
	}
}

func TestExecTimeGrowsWithSkew(t *testing.T) {
	fx := gridFixture(t, 4, 54)
	var prev des.Time
	for i, skew := range []des.Time{des.Microsecond, 100 * des.Microsecond, 10 * des.Millisecond} {
		tm := DefaultTiming()
		tm.SkewBound = skew
		b, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, fx.net.InterferenceDiameter(), tm, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.ExecTime <= prev {
			t.Errorf("execution time must grow with skew: %v then %v", prev, res.ExecTime)
		}
		prev = res.ExecTime
	}
}

func TestExecTimeGrowsWithKAndSMBytes(t *testing.T) {
	fx := gridFixture(t, 4, 55)
	baseK := fx.net.InterferenceDiameter()
	run := func(k, smBytes int) des.Time {
		tm := DefaultTiming()
		tm.SMBytes = smBytes
		b, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, k, tm, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	if run(baseK, 15) >= run(2*baseK, 15) {
		t.Error("doubling K must increase execution time")
	}
	if run(baseK, 15) >= run(baseK, 60) {
		t.Error("larger SCREAM payload must increase execution time")
	}
}

// TestStrictBackendFullProtocol runs whole protocols in lockstep on a fast
// backend (OR shortcut, one-pass elections) and on a strict one (every
// SCREAM flooded slot by slot, every election bit by bit). The two runs must
// be indistinguishable: the same Result and the same backend accounting.
func TestStrictBackendFullProtocol(t *testing.T) {
	fixtures := []struct {
		name string
		seed int64
		fx   *fixture
	}{
		{"grid4_s56", 56, gridFixture(t, 4, 56)},
		{"grid5_s57", 57, gridFixture(t, 5, 57)},
		{"uniform_s77", 77, uniformFixture(t, 77)},
		{"uniform_s78", 78, uniformFixture(t, 78)},
	}
	for _, f := range fixtures {
		for _, variant := range []Variant{FDD, PDD} {
			for _, c := range []struct{ channels, radios int }{{1, 1}, {2, 2}} {
				name := fmt.Sprintf("%s/%v/C%dR%d", f.name, variant, c.channels, c.radios)
				t.Run(name, func(t *testing.T) {
					run := func(strict bool) (*Result, *IdealBackend) {
						b := f.fx.backend(t, 0, strict)
						cfg := Config{
							Variant: variant, Links: f.fx.links, Demands: f.fx.demands, Backend: b,
							NumChannels: c.channels, NumRadios: c.radios,
						}
						if variant == PDD {
							cfg.Probability = 0.5
							cfg.RNG = rand.New(rand.NewSource(f.seed))
						}
						res, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						return res, b
					}
					fast, fb := run(false)
					strict, sb := run(true)
					if !reflect.DeepEqual(fast, strict) {
						t.Errorf("results differ: fast rounds=%d steps=%d elections=%d screams=%d exec=%v, strict rounds=%d steps=%d elections=%d screams=%d exec=%v",
							fast.Rounds, fast.Steps, fast.Elections, fast.Screams, fast.ExecTime,
							strict.Rounds, strict.Steps, strict.Elections, strict.Screams, strict.ExecTime)
					}
					if fb.ScreamCount() != sb.ScreamCount() || fb.HandshakeCount() != sb.HandshakeCount() || fb.Elapsed() != sb.Elapsed() {
						t.Errorf("backend accounting differs: fast %d screams, %d handshakes, %v; strict %d, %d, %v",
							fb.ScreamCount(), fb.HandshakeCount(), fb.Elapsed(), sb.ScreamCount(), sb.HandshakeCount(), sb.Elapsed())
					}
				})
			}
		}
	}
}

func TestKTooSmallBreaksProtocol(t *testing.T) {
	// Failure injection: a SCREAM that cannot cover the interference
	// diameter must make the protocol diverge (caught by the consensus
	// guard), not silently return a schedule.
	net, err := topo.NewLine(12, 30, topo.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := route.BuildForest(net.Comm, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	links := f.Links()
	demands := make([]int, len(links))
	for i := range demands {
		demands[i] = 2
	}
	b, err := NewIdealBackend(net.Channel, net.Sens, 2 /* << ID=11 */, DefaultTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Variant: FDD, Links: links, Demands: demands, Backend: b, MaxRounds: 500})
	if err == nil {
		t.Fatal("K far below ID should break the protocol detectably")
	}
	if !strings.Contains(err.Error(), "divergence") && !strings.Contains(err.Error(), "termination") {
		t.Errorf("unexpected failure mode: %v", err)
	}
	t.Logf("K<ID failure surfaced as: %v", err)
}

func TestStateAndVariantStrings(t *testing.T) {
	if Dormant.String() != "DORMANT" || Control.String() != "CONTROL" ||
		Active.String() != "ACTIVE" || Allocated.String() != "ALLOCATED" ||
		Tried.String() != "TRIED" || Complete.String() != "COMPLETE" ||
		Terminate.String() != "TERMINATE" || State(42).String() != "state(42)" {
		t.Error("State strings broken")
	}
	if PDD.String() != "PDD" || FDD.String() != "FDD" || Variant(9).String() != "variant(9)" {
		t.Error("Variant strings broken")
	}
}

func TestPDDDeterministicPerSeed(t *testing.T) {
	fx := gridFixture(t, 4, 57)
	run := func(seed int64) *sched.Schedule {
		res, err := Run(Config{
			Variant: PDD, Probability: 0.5, RNG: rand.New(rand.NewSource(seed)),
			Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Schedule
	}
	if !run(1).Equal(run(1)) {
		t.Error("same seed must reproduce the same PDD schedule")
	}
}
