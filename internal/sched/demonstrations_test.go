package sched

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"scream/internal/phys"
	"scream/internal/route"
	"scream/internal/topo"
	"scream/internal/traffic"
)

// heterogeneousMesh builds a 48-node uniform deployment over a 250 m square
// with TX powers drawn from 10–20 dBm, a routing forest to its quadrant
// gateways and per-link demands in [1, 10].
func heterogeneousMesh(t testing.TB, seed int64) (*topo.Network, []phys.Link, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := topo.NewUniform(topo.UniformConfig{
		N: 48, Side: 250, MinTxDBm: 10, MaxTxDBm: 20, Params: topo.DefaultParams(),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	gws, err := topo.QuadrantGateways(net)
	if err != nil {
		t.Fatal(err)
	}
	f, err := route.BuildForest(net.Comm, gws, rng)
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
	return net, links, demands
}

// scheduleDigest is a schedule's length and the FNV-64a digest of its
// slots, each slot's links in the order the schedule holds them.
func scheduleDigest(s *Schedule) string {
	h := fnv.New64a()
	for i := 0; i < s.Length(); i++ {
		fmt.Fprintf(h, "%d:", i)
		for _, l := range s.Slot(i) {
			fmt.Fprintf(h, "%d>%d,", l.From, l.To)
		}
	}
	return fmt.Sprintf("%d slots %016x", s.Length(), h.Sum64())
}

// TestDemonstrationsPinnedHeterogeneous pins the schedules of the two
// demonstration greedies, GreedyProtocol (the protocol-model contrast of
// the paper's Section I) and LocalizedGreedy (Theorem 1), on uniform
// deployments at heterogeneous power, over four seeds and every ordering.
// At one power the two directions of a pair receive the same power, so a
// check that reads a pair the wrong way round (the ACK direction of the
// protocol model's exclusion test, say) changes nothing on a line or a
// grid; here it changes the schedules. The digests were recorded with the
// protocol model's incremental slot checker, before GreedyProtocol moved
// to the first-fit loop it shares with LocalizedGreedy.
func TestDemonstrationsPinnedHeterogeneous(t *testing.T) {
	want := map[string]string{
		"seed 1 demand-desc localized":  "107 slots ad6f068c1c88cff4",
		"seed 1 demand-desc protocol":   "134 slots 040fc3060fdb9cf1",
		"seed 1 head-id-desc localized": "111 slots 076c14f25517cf4f",
		"seed 1 head-id-desc protocol":  "142 slots a57e5475ee73a55f",
		"seed 1 length-desc localized":  "109 slots 0ca2bcd9c7ee5d91",
		"seed 1 length-desc protocol":   "134 slots 773e84112ea0cc8d",
		"seed 2 demand-desc localized":  "137 slots 4384f8e59dec89a1",
		"seed 2 demand-desc protocol":   "142 slots 851d59180f2fffa4",
		"seed 2 head-id-desc localized": "136 slots f32b58785c4a5f37",
		"seed 2 head-id-desc protocol":  "138 slots eb83fd2a23b8dcac",
		"seed 2 length-desc localized":  "135 slots a51e88d4d6be8a6a",
		"seed 2 length-desc protocol":   "140 slots 2981ccc02e323295",
		"seed 3 demand-desc localized":  "108 slots 98411e64640053f0",
		"seed 3 demand-desc protocol":   "129 slots ba2d2c84975259c7",
		"seed 3 head-id-desc localized": "110 slots ad39e756023a0ee1",
		"seed 3 head-id-desc protocol":  "119 slots 28072d81c1ba8825",
		"seed 3 length-desc localized":  "107 slots 3e841ddd312e3b4c",
		"seed 3 length-desc protocol":   "126 slots f4fca3cd6f8e6aa9",
		"seed 4 demand-desc localized":  "134 slots 4b81a82a4f073244",
		"seed 4 demand-desc protocol":   "149 slots d8c85263322a0cd4",
		"seed 4 head-id-desc localized": "143 slots 0e6425eb6bf94a41",
		"seed 4 head-id-desc protocol":  "150 slots 907b75c59b6a0292",
		"seed 4 length-desc localized":  "139 slots 8f6f70d30fa690fc",
		"seed 4 length-desc protocol":   "156 slots 1da10733ee30f843",
	}
	for seed := int64(1); seed <= 4; seed++ {
		net, links, demands := heterogeneousMesh(t, seed)
		pm := phys.NewProtocolModel(net.Channel, net.Params.CSThresholdMW)
		for _, ord := range []Ordering{ByHeadIDDesc, ByDemandDesc, ByLengthDesc} {
			proto, err := GreedyProtocol(pm, links, demands, ord, net.Channel)
			if err != nil {
				t.Fatal(err)
			}
			local, err := LocalizedGreedy(net.Channel, net.Comm, links, demands, 1, ord)
			if err != nil {
				t.Fatal(err)
			}
			for name, s := range map[string]*Schedule{"protocol": proto, "localized": local} {
				key := fmt.Sprintf("seed %d %v %s", seed, ord, name)
				if got := scheduleDigest(s); got != want[key] {
					t.Errorf("%s: %s, want %s", key, got, want[key])
				}
			}
		}
	}
}
