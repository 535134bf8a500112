package radio

import (
	"math/rand"
	"testing"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/phys"
	"scream/internal/route"
	"scream/internal/sched"
	"scream/internal/topo"
	"scream/internal/traffic"
)

func gridNet(t testing.TB, dim int) *topo.Network {
	t.Helper()
	net, err := topo.NewGrid(topo.GridConfig{Rows: dim, Cols: dim, Step: 30, Params: topo.DefaultParams()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func newBackend(t testing.TB, net *topo.Network, skew des.Time, seed int64) *Backend {
	t.Helper()
	tm := core.DefaultTiming()
	tm.SkewBound = skew
	b, err := New(net.Channel, net.Params.CSThresholdMW, net.InterferenceDiameter(), tm, skew, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	net := gridNet(t, 3)
	tm := core.DefaultTiming()
	if _, err := New(net.Channel, net.Params.CSThresholdMW, 0, tm, 0, nil); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := New(net.Channel, 0, 3, tm, 0, nil); err == nil {
		t.Error("zero CS threshold should fail")
	}
	if _, err := New(net.Channel, net.Params.CSThresholdMW, 3, tm, des.Microsecond, nil); err == nil {
		t.Error("offset bound without rng should fail")
	}
	if _, err := New(net.Channel, net.Params.CSThresholdMW, 3, tm, 0, nil); err != nil {
		t.Errorf("zero skew without rng should be fine: %v", err)
	}
}

func TestMaxAggregate(t *testing.T) {
	spans := []span{
		{start: 0, end: 10, power: 1},
		{start: 5, end: 15, power: 2},
		{start: 20, end: 30, power: 10},
	}
	if got := maxAggregate(spans, 0, 15); got != 3 {
		t.Errorf("overlap max = %v, want 3", got)
	}
	if got := maxAggregate(spans, 0, 4); got != 1 {
		t.Errorf("early window max = %v, want 1", got)
	}
	if got := maxAggregate(spans, 16, 19); got != 0 {
		t.Errorf("gap max = %v, want 0", got)
	}
	// Half-open semantics: a span ending exactly where another begins does
	// not stack with it.
	touch := []span{{start: 0, end: 10, power: 1}, {start: 10, end: 20, power: 1}}
	if got := maxAggregate(touch, 0, 20); got != 1 {
		t.Errorf("touching spans max = %v, want 1", got)
	}
	if got := maxAggregate(nil, 0, 100); got != 0 {
		t.Errorf("no spans max = %v, want 0", got)
	}
}

func TestScreamMatchesIdealNoSkew(t *testing.T) {
	net := gridNet(t, 4)
	rb := newBackend(t, net, 0, 1)
	ib, err := core.NewIdealBackend(net.Channel, net.Sens, net.InterferenceDiameter(), core.DefaultTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	n := net.NumNodes()
	for trial := 0; trial < 40; trial++ {
		vars := make([]bool, n)
		for i := range vars {
			vars[i] = rng.Intn(5) == 0
		}
		got := rb.Scream(vars)
		want := ib.Scream(vars)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d node %d: radio %v, ideal %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestScreamWorksWithProvisionedSkew(t *testing.T) {
	// Skew within the provisioned bound must not break the network-wide OR.
	net := gridNet(t, 4)
	rb := newBackend(t, net, 50*des.Microsecond, 7)
	n := net.NumNodes()
	vars := make([]bool, n)
	vars[5] = true
	got := rb.Scream(vars)
	for i, g := range got {
		if !g {
			t.Fatalf("node %d missed the scream despite guard provisioning", i)
		}
	}
}

func TestScreamFailsWhenGuardUnderProvisioned(t *testing.T) {
	// Actual skew 10x the provisioned bound: packets can fall outside
	// listener windows and the OR can under-propagate.
	net, err := topo.NewLine(8, 30, topo.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tm := core.DefaultTiming()
	tm.SkewBound = des.Microsecond // guard provisioned for 1 us
	actual := 400 * des.Microsecond
	b, err := New(net.Channel, net.Params.CSThresholdMW, net.InterferenceDiameter(), tm, actual, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	// Worst case: alternate extreme offsets so adjacent nodes never align.
	offsets := make([]des.Time, net.NumNodes())
	for i := range offsets {
		if i%2 == 0 {
			offsets[i] = -actual
		} else {
			offsets[i] = actual
		}
	}
	copy(b.offsets, offsets)
	vars := make([]bool, net.NumNodes())
	vars[0] = true
	got := b.Scream(vars)
	reached := 0
	for _, g := range got {
		if g {
			reached++
		}
	}
	if reached == net.NumNodes() {
		t.Error("under-provisioned guard should lose at least one node")
	}
	t.Logf("under-provisioned guard reached %d/%d nodes", reached, net.NumNodes())
}

func TestHandshakeMatchesIdealNoSkew(t *testing.T) {
	net := gridNet(t, 5)
	rb := newBackend(t, net, 0, 1)
	rng := rand.New(rand.NewSource(11))
	f, err := route.BuildForest(net.Comm, []int{0}, rng)
	if err != nil {
		t.Fatal(err)
	}
	links := f.Links()
	for trial := 0; trial < 50; trial++ {
		// Random subset of links.
		var set []phys.Link
		for _, l := range links {
			if rng.Intn(4) == 0 {
				set = append(set, l)
			}
		}
		got := rb.HandshakeSlot(set)
		want := net.Channel.HandshakeOutcome(set)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d link %v: radio %v, ideal %v", trial, set[i], got[i], want[i])
			}
		}
	}
}

func TestHandshakeWithSkewStillDecodes(t *testing.T) {
	net := gridNet(t, 4)
	rb := newBackend(t, net, 100*des.Microsecond, 13)
	f, err := route.BuildForest(net.Comm, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := f.EdgeOf(5)
	if !ok {
		t.Fatal("node 5 should own an edge")
	}
	got := rb.HandshakeSlot([]phys.Link{l})
	if !got[0] {
		t.Error("a lone handshake with provisioned skew must succeed")
	}
}

func TestElapsedAdvances(t *testing.T) {
	net := gridNet(t, 3)
	rb := newBackend(t, net, des.Microsecond, 17)
	if rb.Elapsed() != 0 {
		t.Fatal("fresh backend should be at time 0")
	}
	rb.Scream(make([]bool, net.NumNodes()))
	k := des.Time(net.InterferenceDiameter())
	tm := core.DefaultTiming()
	tm.SkewBound = des.Microsecond
	if got, want := rb.Elapsed(), k*tm.ScreamSlot(); got != want {
		t.Errorf("after one SCREAM elapsed = %v, want %v", got, want)
	}
	rb.HandshakeSlot(nil)
	if got, want := rb.Elapsed(), k*tm.ScreamSlot()+tm.HandshakeSlot(); got != want {
		t.Errorf("after handshake elapsed = %v, want %v", got, want)
	}
}

func TestFullFDDOnRadioMatchesIdeal(t *testing.T) {
	// The flagship validation: the complete FDD protocol over the
	// packet-level radio (with real skew inside the provisioned bound)
	// produces exactly the schedule the ideal backend computes — and hence,
	// by Theorem 4, the centralized GreedyPhysical schedule.
	net := gridNet(t, 4)
	rng := rand.New(rand.NewSource(23))
	f, err := route.BuildForest(net.Comm, []int{0}, rng)
	if err != nil {
		t.Fatal(err)
	}
	nodeDemand, err := traffic.Uniform(net.NumNodes(), 1, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	links := f.Links()
	demands, err := f.LinkDemands(links, nodeDemand)
	if err != nil {
		t.Fatal(err)
	}

	tm := core.DefaultTiming()
	tm.SkewBound = 10 * des.Microsecond
	rb, err := New(net.Channel, net.Params.CSThresholdMW, net.InterferenceDiameter(), tm, tm.SkewBound, rand.New(rand.NewSource(29)))
	if err != nil {
		t.Fatal(err)
	}
	radioRes, err := core.Run(core.Config{Variant: core.FDD, Links: links, Demands: demands, Backend: rb})
	if err != nil {
		t.Fatal(err)
	}
	if err := radioRes.Schedule.Verify(net.Channel, links, demands); err != nil {
		t.Fatalf("radio-backend FDD schedule invalid: %v", err)
	}
	want, err := sched.GreedyPhysical(net.Channel, links, demands, sched.ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	if !radioRes.Schedule.Equal(want) {
		t.Error("radio-backend FDD differs from centralized GreedyPhysical")
	}
	if radioRes.ExecTime <= 0 {
		t.Error("radio backend must accumulate execution time")
	}
	t.Logf("radio FDD: %d slots in simulated %v", radioRes.Schedule.Length(), radioRes.ExecTime)
}
