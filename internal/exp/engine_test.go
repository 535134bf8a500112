package exp

import (
	"errors"
	"runtime"
	"testing"

	"scream/internal/stats"
)

// figuresEqual compares two figures exactly: titles, axes, series names and
// every point bit-for-bit. Parallel runs must never change published numbers.
func figuresEqual(t *testing.T, name string, a, b *stats.Figure) {
	t.Helper()
	if a.Title != b.Title || a.XLabel != b.XLabel || a.YLabel != b.YLabel {
		t.Fatalf("%s: figure metadata differs: %q vs %q", name, a.Title, b.Title)
	}
	if len(a.Series) != len(b.Series) {
		t.Fatalf("%s: %d vs %d series", name, len(a.Series), len(b.Series))
	}
	for i, sa := range a.Series {
		sb := b.Series[i]
		if sa.Name != sb.Name {
			t.Fatalf("%s: series %d name %q vs %q", name, i, sa.Name, sb.Name)
		}
		if len(sa.Points) != len(sb.Points) {
			t.Fatalf("%s/%s: %d vs %d points", name, sa.Name, len(sa.Points), len(sb.Points))
		}
		for j, pa := range sa.Points {
			pb := sb.Points[j]
			if pa != pb {
				t.Errorf("%s/%s point %d: workers=1 %+v != workers=8 %+v", name, sa.Name, j, pa, pb)
			}
		}
	}
}

// TestEngineDeterminism is the engine's core guarantee: the same figure,
// bit-for-bit, for any worker count. One runner per cell shape: the shared
// improvement figures (Fig6/Fig7), the per-curve timing grids (Fig8), the
// mote grid (Fig4), and the in-cell sequential-RNG ablation
// (AblationBalancedRouting). The four flow figures run every cell of a
// worker on that worker's flow.Runner, and one worker runs all cells in
// order where eight split them, so any state a run leaks into the next
// shows up here as a difference.
func TestEngineDeterminism(t *testing.T) {
	runners := []struct {
		name string
		run  func(Options) (*stats.Figure, error)
	}{
		{"Fig4", Fig4},
		{"Fig6", Fig6},
		{"Fig7", Fig7},
		{"Fig8", Fig8},
		{"AblationBalancedRouting", AblationBalancedRouting},
		// The flow figure runs whole dynamic simulations per cell; its
		// determinism additionally covers the des-driven arrival streams.
		{"FigFlowLoad", FigFlowLoad},
		// The churn figure additionally covers the dynam event timelines,
		// in-place channel mutation and incremental route repair.
		{"FigChurn", FigChurn},
		// The channels figure additionally covers the multi-channel slot
		// engine, channel-assigned schedules and the per-channel protocol
		// phases.
		{"FigChannels", FigChannels},
		// The sched figure additionally covers the queue-aware and
		// length-class schedulers, Zipf hotspot rates and the uniform
		// deployment.
		{"FigSched", FigSched},
	}
	for _, r := range runners {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			serial, err := r.run(Options{Quick: true, Seeds: 2, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := r.run(Options{Quick: true, Seeds: 2, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			figuresEqual(t, r.name, serial, parallel)
		})
	}
}

func TestRunCellsErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		_, err := runCellsWith(Options{Seeds: 3, Workers: workers}, 4, 1, func(_ *struct{}, xi, si int) ([]float64, error) {
			if xi == 2 && si == 1 {
				return nil, boom
			}
			return []float64{0}, nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: want boom, got %v", workers, err)
		}
	}
}

// TestRunGridErrorPropagation: the engine builds a figure only when every
// cell succeeds; otherwise the runner gets no figure and the failing cell's
// error.
func TestRunGridErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	xs := []float64{10, 20, 30, 40}
	for _, workers := range []int{1, 8} {
		fig, err := runGrid("t", "x", "y", xs, []string{"c"}, Options{Seeds: 3, Workers: workers}, func(xi, si int) ([]float64, error) {
			if xi == 2 && si == 1 {
				return nil, boom
			}
			return []float64{0}, nil
		})
		if fig != nil || !errors.Is(err, boom) {
			t.Errorf("workers=%d: want a nil figure and boom, got %v and %v", workers, fig, err)
		}
	}
	fig, err := runGrid("t", "x", "y", xs, []string{"xi", "si"}, Options{Seeds: 3, Workers: 4}, func(xi, si int) ([]float64, error) {
		return []float64{float64(xi), float64(si)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fig.Title != "t" || fig.XLabel != "x" || fig.YLabel != "y" || len(fig.Series) != 2 {
		t.Fatalf("figure %q (%q, %q) with %d series", fig.Title, fig.XLabel, fig.YLabel, len(fig.Series))
	}
	for xi, x := range xs {
		if p := fig.Series[0].Points[xi]; p.X != x || p.Y != float64(xi) || p.Err != 0 {
			t.Errorf("series xi point %d = %+v, want x=%g mean=%d ci=0", xi, p, x, xi)
		}
		if p := fig.Series[1].Points[xi]; p.X != x || p.Y != 1 {
			t.Errorf("series si point %d = %+v, want x=%g mean=1", xi, p, x)
		}
	}
}

func TestRunCellsValueCountMismatch(t *testing.T) {
	_, err := runCellsWith(Options{Seeds: 1, Workers: 2}, 2, 3, func(_ *struct{}, xi, si int) ([]float64, error) {
		return []float64{1}, nil // 1 value, 3 curves
	})
	if err == nil {
		t.Fatal("cell returning wrong value count must fail")
	}
}

func TestRunCellsIndexing(t *testing.T) {
	// Cell values must land at vals[xi*seeds+si] no matter which worker
	// computed them.
	opts := Options{Seeds: 3, Workers: 4}
	vals, err := runCellsWith(opts, 5, 2, func(_ *struct{}, xi, si int) ([]float64, error) {
		return []float64{float64(xi), float64(si)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for xi := 0; xi < 5; xi++ {
		for si := 0; si < 3; si++ {
			got := vals[xi*3+si]
			if got[0] != float64(xi) || got[1] != float64(si) {
				t.Errorf("cell (%d,%d) landed wrong: %v", xi, si, got)
			}
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if got := (Options{}).workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Options{Workers: 3}).workers(); got != 3 {
		t.Errorf("explicit workers = %d, want 3", got)
	}
}
