package phys

import (
	"math"
	"math/rand"
	"testing"

	"scream/internal/geom"
)

// lineChannel builds a channel with n nodes evenly spaced step meters apart
// on a line, homogeneous power, default propagation.
func lineChannel(t testing.TB, n int, step float64, txDBm DBm) *Channel {
	t.Helper()
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * step}
	}
	gain := BuildGainMatrix(pos, DefaultLogDistance(), nil)
	pw := make([]float64, n)
	for i := range pw {
		pw[i] = txDBm.MilliWatts()
	}
	ch, err := NewChannel(pw, gain, DBm(-96).MilliWatts(), DB(10).Linear())
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestNewChannelValidation(t *testing.T) {
	good := []float64{0, 1, 1, 0}
	if _, err := NewChannel([]float64{1, 1}, good, 1, 1); err != nil {
		t.Errorf("valid channel rejected: %v", err)
	}
	cases := []struct {
		name  string
		pw    []float64
		gain  []float64
		noise float64
		beta  float64
	}{
		{"bad rows", []float64{1, 1}, []float64{0, 1}, 1, 1},             // one row of two
		{"bad cols", []float64{1, 1}, []float64{0, 1, 1, 0, 1, 1}, 1, 1}, // two rows of three
		{"zero noise", []float64{1, 1}, good, 0, 1},
		{"zero beta", []float64{1, 1}, good, 1, 0},
		{"zero power", []float64{1, 0}, good, 1, 1},
		{"asymmetric", []float64{1, 1}, []float64{0, 1, 2, 0}, 1, 1},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewChannel(tt.pw, tt.gain, tt.noise, tt.beta); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestChannelAccessors(t *testing.T) {
	ch := lineChannel(t, 4, 20, 20)
	if ch.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", ch.NumNodes())
	}
	if ch.Gain(1, 1) != 0 {
		t.Error("self gain should be 0")
	}
	if ch.Gain(0, 1) != ch.Gain(1, 0) {
		t.Error("gain should be symmetric for this build")
	}
	if ch.RxPowerMW(0, 1) <= ch.RxPowerMW(0, 2) {
		t.Error("closer receiver should get more power")
	}
}

func TestLinkUpAtRange(t *testing.T) {
	ch := lineChannel(t, 3, 50, 20)
	pl := DefaultLogDistance()
	r := pl.MaxRange(DBm(20).MilliWatts(), ch.NoiseMW(), ch.Beta())
	if r < 50 {
		t.Skipf("range %v too short for this layout", r)
	}
	if !ch.LinkUp(0, 1) {
		t.Error("adjacent link should be up")
	}
	if ch.LinkUp(0, 2) != (100 <= r) {
		t.Errorf("2-step link up = %v, range %v", ch.LinkUp(0, 2), r)
	}
}

// sinr is the textbook SINR of a transmission from u to v while each node
// in interferers also transmits (u and v are skipped if listed): the direct
// definition the incremental engines are checked against.
func sinr(ch *Channel, u, v int, interferers []int) float64 {
	interf := 0.0
	for _, x := range interferers {
		if x == u || x == v {
			continue
		}
		interf += ch.RxPowerMW(x, v)
	}
	return ch.RxPowerMW(u, v) / (ch.NoiseMW() + interf)
}

func TestSINRNoInterference(t *testing.T) {
	ch := lineChannel(t, 4, 30, 20)
	snr := ch.SNR(0, 1)
	got := sinr(ch, 0, 1, nil)
	if math.Abs(snr-got) > 1e-12 {
		t.Errorf("SINR with no interferers = %v, want SNR %v", got, snr)
	}
	// Sender/receiver in the interferer list are ignored.
	got = sinr(ch, 0, 1, []int{0, 1})
	if math.Abs(snr-got) > 1e-12 {
		t.Errorf("SINR must skip endpoints, got %v want %v", got, snr)
	}
	// A real interferer lowers SINR.
	if sinr(ch, 0, 1, []int{3}) >= snr {
		t.Error("interference must reduce SINR")
	}
}

// aggregatePowerMW returns the total power received at node rx when every
// node in senders transmits simultaneously. rx itself is skipped if present
// in senders (a node does not hear its own signal as channel activity for
// carrier-sensing purposes — it knows it is transmitting).
func (c *Channel) aggregatePowerMW(rx int, senders []int) float64 {
	sum := 0.0
	for _, s := range senders {
		if s == rx {
			continue
		}
		sum += c.RxPowerMW(s, rx)
	}
	return sum
}

// reverse returns the link with endpoints swapped.
func (l Link) reverse() Link { return Link{From: l.To, To: l.From} }

func TestAggregatePowerSkipsSelf(t *testing.T) {
	ch := lineChannel(t, 3, 30, 20)
	all := ch.aggregatePowerMW(1, []int{0, 1, 2})
	noSelf := ch.aggregatePowerMW(1, []int{0, 2})
	if all != noSelf {
		t.Errorf("self transmission should be excluded: %v vs %v", all, noSelf)
	}
}

func TestDetects(t *testing.T) {
	ch := lineChannel(t, 5, 30, 20)
	det := DBm(-85).MilliWatts()
	if ch.aggregatePowerMW(1, []int{0}) < det {
		t.Error("adjacent sender should be detected")
	}
	if ch.aggregatePowerMW(0, nil) >= det {
		t.Error("silence should not be detected")
	}
	// Collision resilience: more simultaneous senders never turn detection off.
	single := ch.aggregatePowerMW(2, []int{1})
	multi := ch.aggregatePowerMW(2, []int{1, 3, 4})
	if multi < single {
		t.Error("aggregate energy must be monotone in the sender set")
	}
}

func TestLinkHelpers(t *testing.T) {
	l := Link{From: 1, To: 2}
	if l.String() != "1->2" {
		t.Errorf("String = %q", l.String())
	}
	cases := []struct {
		a, b Link
		want bool
	}{
		{Link{0, 1}, Link{2, 3}, false},
		{Link{0, 1}, Link{1, 2}, true},
		{Link{0, 1}, Link{2, 0}, true},
		{Link{0, 1}, Link{0, 2}, true},
		{Link{0, 1}, Link{2, 1}, true},
		{Link{0, 1}, Link{0, 1}, true},
	}
	for _, tt := range cases {
		if got := tt.a.SharesEndpoint(tt.b); got != tt.want {
			t.Errorf("SharesEndpoint(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if got := tt.b.SharesEndpoint(tt.a); got != tt.want {
			t.Errorf("SharesEndpoint not symmetric for %v, %v", tt.a, tt.b)
		}
	}
}

func TestFeasibleSetSingleLink(t *testing.T) {
	ch := lineChannel(t, 8, 30, 20)
	if !ch.FeasibleSet([]Link{{0, 1}}) {
		t.Error("single short link should be feasible")
	}
	if ch.FeasibleSet([]Link{{0, 7}}) {
		t.Error("a link far beyond range should be infeasible")
	}
}

func TestFeasibleSetPrimaryConflict(t *testing.T) {
	ch := lineChannel(t, 8, 30, 20)
	if ch.FeasibleSet([]Link{{0, 1}, {1, 2}}) {
		t.Error("links sharing node 1 must be infeasible")
	}
	if ch.FeasibleSet([]Link{{0, 1}, {0, 1}}) {
		t.Error("duplicate link must be infeasible")
	}
}

func TestFeasibleSetDistantPairs(t *testing.T) {
	// Two short links far apart should coexist; two adjacent ones should not
	// (strong mutual interference at alpha=3, beta=10dB, 30 m spacing).
	ch := lineChannel(t, 20, 30, 20)
	if !ch.FeasibleSet([]Link{{0, 1}, {18, 19}}) {
		t.Error("far-apart link pair should be feasible")
	}
	if ch.FeasibleSet([]Link{{0, 1}, {2, 3}}) {
		t.Error("adjacent link pair should conflict under physical interference")
	}
}

func TestFeasibleSetMatchesSINRDefinition(t *testing.T) {
	ch := lineChannel(t, 16, 40, 20)
	links := []Link{{0, 1}, {8, 9}, {14, 15}}
	want := true
	for i, l := range links {
		var dataIntf []int
		var ackIntf []int
		for j, m := range links {
			if i == j {
				continue
			}
			dataIntf = append(dataIntf, m.From)
			ackIntf = append(ackIntf, m.To)
		}
		if sinr(ch, l.From, l.To, dataIntf) < ch.Beta() {
			want = false
		}
		if sinr(ch, l.To, l.From, ackIntf) < ch.Beta() {
			want = false
		}
	}
	if got := ch.FeasibleSet(links); got != want {
		t.Errorf("FeasibleSet = %v, direct SINR computation says %v", got, want)
	}
}

func TestAckInterferenceMatters(t *testing.T) {
	// Construct a case where the data sub-slot is fine but ACKs collide:
	// receivers adjacent to each other, senders far on opposite sides.
	// Layout: s1 --- r1  r2 --- s2 with r1, r2 close together.
	pl := DefaultLogDistance()
	pos := []geom.Point{{X: 0}, {X: 95}, {X: 125}, {X: 220}} // s1, r1, r2, s2 on a line
	gain := BuildGainMatrix(pos, pl, nil)
	pw := []float64{DBm(22).MilliWatts(), DBm(2).MilliWatts(), DBm(2).MilliWatts(), DBm(22).MilliWatts()}
	ch, err := NewChannel(pw, gain, DBm(-96).MilliWatts(), DB(10).Linear())
	if err != nil {
		t.Fatal(err)
	}
	links := []Link{{0, 1}, {3, 2}}
	// Data direction: strong senders, interferer is far from the foreign
	// receiver. ACK direction: weak ACK powers and the foreign ACK sender
	// (the other receiver) is very close -> ACK inequality should fail.
	dataOK := sinr(ch, 0, 1, []int{3}) >= ch.Beta() && sinr(ch, 3, 2, []int{0}) >= ch.Beta()
	ackOK := sinr(ch, 1, 0, []int{2}) >= ch.Beta() && sinr(ch, 2, 3, []int{1}) >= ch.Beta()
	if !dataOK {
		t.Skip("geometry did not produce clean data sub-slot; adjust constants")
	}
	if ackOK {
		t.Skip("geometry did not produce ACK collision; adjust constants")
	}
	if ch.FeasibleSet(links) {
		t.Error("set must be infeasible due to ACK sub-slot interference")
	}
}

func TestHandshakeOutcomeAllAlone(t *testing.T) {
	ch := lineChannel(t, 4, 30, 20)
	got := ch.HandshakeOutcome([]Link{{0, 1}})
	if len(got) != 1 || !got[0] {
		t.Errorf("lone handshake should succeed, got %v", got)
	}
}

func TestHandshakeOutcomeConflicts(t *testing.T) {
	ch := lineChannel(t, 6, 30, 20)
	got := ch.HandshakeOutcome([]Link{{0, 1}, {1, 2}})
	if got[0] || got[1] {
		t.Errorf("primary-conflicted handshakes must both fail, got %v", got)
	}
}

func TestHandshakeOutcomeSubsetOfFeasible(t *testing.T) {
	// For any feasible set, every handshake must succeed.
	rng := rand.New(rand.NewSource(11))
	ch := lineChannel(t, 24, 35, 20)
	for trial := 0; trial < 200; trial++ {
		var links []Link
		used := map[int]bool{}
		for k := 0; k < 4; k++ {
			a := rng.Intn(23)
			if used[a] || used[a+1] {
				continue
			}
			links = append(links, Link{a, a + 1})
			used[a], used[a+1] = true, true
		}
		if !ch.FeasibleSet(links) {
			continue
		}
		for i, ok := range ch.HandshakeOutcome(links) {
			if !ok {
				t.Fatalf("link %v of feasible set failed handshake (trial %d, links %v)", links[i], trial, links)
			}
		}
	}
}

func TestHandshakeAckOnlyFromDecodedReceivers(t *testing.T) {
	// If one link's data fails, its receiver must not ACK, so the other
	// link's ACK sub-slot sees less interference than FeasibleSet assumes.
	// Build: good short link + hopeless long link.
	ch := lineChannel(t, 30, 30, 20)
	links := []Link{{0, 1}, {10, 29}} // second is way out of range
	got := ch.HandshakeOutcome(links)
	if got[1] {
		t.Fatal("out-of-range link cannot complete a handshake")
	}
	if !got[0] {
		t.Error("short link should succeed; the dead link's receiver sends no ACK")
	}
}

func TestSlotStateMatchesFeasibleSet(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ch := lineChannel(t, 20, 35, 20)
	for trial := 0; trial < 500; trial++ {
		sc := newSlotState(ch)
		var accepted []Link
		for k := 0; k < 6; k++ {
			a := rng.Intn(19)
			l := Link{a, a + 1}
			if rng.Intn(2) == 0 {
				l = l.reverse()
			}
			if c := NewCandidate(ch, l); sc.CanAdd(c) {
				sc.Add(c)
				accepted = append(accepted, l)
				if !ch.FeasibleSet(accepted) {
					t.Fatalf("SlotState accepted infeasible set %v (trial %d)", accepted, trial)
				}
			}
		}
		if sc.Len() != len(accepted) {
			t.Fatalf("Len = %d, want %d", sc.Len(), len(accepted))
		}
	}
}

func TestSlotStateRejectsConflict(t *testing.T) {
	ch := lineChannel(t, 10, 30, 20)
	sc := newSlotState(ch)
	if !sc.CanAdd(NewCandidate(ch, Link{0, 1})) {
		t.Fatal("first link should be addable")
	}
	sc.Add(NewCandidate(ch, Link{0, 1}))
	if sc.CanAdd(NewCandidate(ch, Link{1, 2})) {
		t.Error("endpoint conflict must be rejected")
	}
	if sc.CanAdd(NewCandidate(ch, Link{2, 2})) {
		t.Error("self loop must be rejected")
	}
}

func TestSlotStateReset(t *testing.T) {
	ch := lineChannel(t, 10, 30, 20)
	sc := newSlotState(ch)
	sc.Add(NewCandidate(ch, Link{0, 1}))
	sc.Reset()
	if sc.Len() != 0 {
		t.Fatal("reset should clear links")
	}
	if !sc.CanAdd(NewCandidate(ch, Link{1, 2})) {
		t.Error("node busy set should be cleared by Reset")
	}
}

func TestSlotStateLinksCopy(t *testing.T) {
	ch := lineChannel(t, 10, 30, 20)
	sc := newSlotState(ch)
	sc.Add(NewCandidate(ch, Link{0, 1}))
	links := sc.AppendLinks(nil)
	links[0] = Link{5, 6}
	if sc.AppendLinks(nil)[0] != (Link{0, 1}) {
		t.Error("AppendLinks must copy the slot's links")
	}
}

func TestBuildGainMatrixShadowing(t *testing.T) {
	pos := []geom.Point{{}, {X: 10}}
	pl := DefaultLogDistance()
	shadow := [][]float64{{0, 6}, {6, 0}} // 6 dB extra loss
	plain := BuildGainMatrix(pos, pl, nil)
	shadowed := BuildGainMatrix(pos, pl, shadow)
	want := float64(plain[0*2+1] * math.Pow(10, -0.6))
	if math.Abs(shadowed[0*2+1]-want) > 1e-15 {
		t.Errorf("shadowed gain = %v, want %v", shadowed[0*2+1], want)
	}
	if shadowed[0*2+1] != shadowed[1*2+0] {
		t.Error("shadowed gain must stay symmetric")
	}
}
