package exp

// Shape and headline pins for the scheduler-family figure: every
// scheduler × topology curve must be present with one point per load, all
// goodput must be positive, and on both topologies every reuse scheduler
// must beat the TDMA floor at the saturating end of the sweep (worker
// determinism is covered by TestEngineDeterminism and the nightly
// check_determinism.sh run over -fig sched).

import (
	"fmt"
	"testing"
)

func TestFigSchedShapeAndTDMAFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dynamic traffic simulations")
	}
	fig, err := FigSched(Options{Quick: true, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	loads := SchedLoads(true)
	names := schedCurveNames()
	if len(fig.Series) != len(names) {
		t.Fatalf("got %d series, want %d", len(fig.Series), len(names))
	}
	for _, name := range names {
		s := lookup(fig, name)
		if s == nil {
			t.Fatalf("missing series %q", name)
		}
		if len(s.Points) != len(loads) {
			t.Fatalf("%s: %d points for %d loads", name, len(s.Points), len(loads))
		}
		for i, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("%s: non-positive goodput %.1f at load %.2f", name, p.Y, loads[i])
			}
		}
	}
	// At the saturating end of the sweep every reuse scheduler must beat the
	// no-reuse TDMA floor on its topology.
	last := len(loads) - 1
	for _, topo := range schedTopos() {
		floor := lookup(fig, fmt.Sprintf("TDMA %s", topo)).Points[last].Y
		for _, sname := range []string{"Greedy", "MaxWeight", "FanZhang"} {
			got := lookup(fig, fmt.Sprintf("%s %s", sname, topo)).Points[last].Y
			if got <= floor {
				t.Errorf("%s %s goodput %.1f at saturation does not beat TDMA floor %.1f",
					sname, topo, got, floor)
			}
		}
	}
}
