package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scream/internal/phys"
	"scream/internal/phys/spatial"
)

// builderEngines returns the engines the builder tests run on: the dense
// channel, a bare spatial index, and a memo over a second index together
// with a bare index to compare it against.
func builderEngines(t *testing.T) (dense *phys.Channel, idx *spatial.Index, memo *spatial.Memo, memoRef *spatial.Index, links []phys.Link) {
	t.Helper()
	net, links, _ := testMesh(t, 6, 3)
	idx, err := net.SpatialEngine(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.SpatialEngine(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if memoRef, err = net.SpatialEngine(0, 0); err != nil {
		t.Fatal(err)
	}
	return net.Channel, idx, spatial.NewMemo(inner), memoRef, links
}

// TestBuilderMatchesOneShot drives one Builder through a random sequence of
// link sets and demand vectors — every admission order, the data-only
// ablation, max-weight, Fan-Zhang and multi-channel builds, on the dense and
// spatial engines — and requires every schedule to DeepEqual a one-shot
// build of the same inputs. Some instances need more than one slab of
// slots, some fail part-way (a negative demand), and the builds on the memo
// are compared with one-shot builds on a bare index, so reused slots, a
// half-finished build and cached gains all have to leave no trace.
func TestBuilderMatchesOneShot(t *testing.T) {
	dense, idx, memo, memoRef, links := builderEngines(t)
	engines := []struct {
		name     string
		eng, ref phys.Engine
	}{{"dense", dense, dense}, {"spatial", idx, idx}, {"memo", memo, memoRef}}
	orderings := []Ordering{ByHeadIDDesc, ByDemandDesc, ByLengthDesc}
	rng := rand.New(rand.NewSource(5))
	var b Builder
	kinds := map[string]int{}
	maxSlots, failures := 0, 0
	for step := 0; step < 400; step++ {
		e := engines[rng.Intn(len(engines))]
		fl, fd := fuzzInstance(rng, links)
		switch rng.Intn(8) {
		case 0:
			// Heavy demands: more slots than one slab holds.
			for i := range fd {
				fd[i] = 10 + rng.Intn(30)
			}
		case 1:
			fd[rng.Intn(len(fd))] = -1
		}
		ord := orderings[rng.Intn(len(orderings))]
		channels, radios := 2+rng.Intn(2), 1+rng.Intn(2)
		var (
			kind       string
			got, want  *Schedule
			gerr, werr error
		)
		switch rng.Intn(6) {
		case 0, 1:
			kind = "greedy/" + ord.String()
			got, gerr = b.greedy(e.eng, fl, fd, ord, false)
			want, werr = GreedyPhysical(e.ref, fl, fd, ord)
		case 2:
			kind = "data-only/" + ord.String()
			got, gerr = b.greedy(e.eng, fl, fd, ord, true)
			want, werr = GreedyPhysicalDataOnly(e.ref, fl, fd, ord)
		case 3:
			kind = "maxweight"
			got, gerr = b.GreedyMaxWeight(e.eng, fl, fd)
			want, werr = GreedyMaxWeight(e.ref, fl, fd)
		case 4:
			kind = "fanzhang"
			got, gerr = b.ApproxFanZhang(e.eng, fl, fd)
			want, werr = ApproxFanZhang(e.ref, fl, fd)
		default:
			kind = fmt.Sprintf("multi/C=%d,R=%d", channels, radios)
			got, gerr = b.GreedyPhysicalMulti(e.eng, channels, radios, fl, fd, ord)
			want, werr = GreedyPhysicalMulti(e.ref, channels, radios, fl, fd, ord)
		}
		kinds[kind]++
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("step %d %s on %s: builder error %v, one-shot error %v", step, kind, e.name, gerr, werr)
		}
		if gerr != nil {
			failures++
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %s on %s: builder schedule %v, one-shot %v", step, kind, e.name, got.slots, want.slots)
		}
		maxSlots = max(maxSlots, got.Length())
	}
	if maxSlots <= slabSize || failures == 0 || len(kinds) < 10 {
		t.Fatalf("sequence too tame: longest schedule %d slots, %d failed builds, %d build kinds", maxSlots, failures, len(kinds))
	}
}

// TestBuilderRepeatAllocatesOnlySchedule: once a builder has built a
// schedule, building it again allocates only the schedule it returns — the
// Schedule, its slot list and one array of links (plus the channel list and
// array on more than one channel).
func TestBuilderRepeatAllocatesOnlySchedule(t *testing.T) {
	dense, idx, memo, _, links := builderEngines(t)
	demands := make([]int, len(links))
	for i := range demands {
		demands[i] = 1 + i%4
	}
	cases := []struct {
		name  string
		want  float64
		build func(b *Builder) (*Schedule, error)
	}{
		{"greedy/dense", 3, func(b *Builder) (*Schedule, error) {
			return b.greedy(dense, links, demands, ByHeadIDDesc, false)
		}},
		{"greedy/spatial", 3, func(b *Builder) (*Schedule, error) {
			return b.greedy(idx, links, demands, ByHeadIDDesc, false)
		}},
		{"greedy/memo", 3, func(b *Builder) (*Schedule, error) {
			return b.greedy(memo, links, demands, ByHeadIDDesc, false)
		}},
		{"greedy/demand-desc", 3, func(b *Builder) (*Schedule, error) {
			return b.greedy(dense, links, demands, ByDemandDesc, false)
		}},
		{"greedy/length-desc", 3, func(b *Builder) (*Schedule, error) {
			return b.greedy(dense, links, demands, ByLengthDesc, false)
		}},
		{"maxweight", 3, func(b *Builder) (*Schedule, error) {
			return b.GreedyMaxWeight(dense, links, demands)
		}},
		{"fanzhang", 3, func(b *Builder) (*Schedule, error) {
			return b.ApproxFanZhang(dense, links, demands)
		}},
		{"multi/C=3,R=2", 5, func(b *Builder) (*Schedule, error) {
			return b.GreedyPhysicalMulti(dense, 3, 2, links, demands, ByHeadIDDesc)
		}},
	}
	for _, tc := range cases {
		var b Builder
		if _, err := tc.build(&b); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := tc.build(&b); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.want {
			t.Errorf("%s: a repeated build allocates %v times, want at most %v", tc.name, got, tc.want)
		}
	}
}
