package exp

// The concurrent experiment engine. Every figure of the harness decomposes
// into a grid of independent cells (xi, si): one x-axis position and one
// seed. A cell rebuilds its scenario from a seed derived only from (xi, si)
// — never from shared state — evaluates every curve of the figure on it
// (curves share the scenario, exactly as the paper's evaluation does), and
// returns one value per curve. Cells fan out across Options.Workers
// goroutines; the reduction into per-(x, curve) samples happens after all
// cells complete, in (xi, si) order. The output is therefore bit-for-bit
// identical for any worker count, which TestEngineDeterminism enforces.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"scream/internal/stats"
)

// cellFunc evaluates all curves of the cell at x-index xi with seed-index si
// and returns one value per curve. Implementations must derive all
// randomness from (xi, si) so the cell is a pure function of its position.
type cellFunc func(xi, si int) ([]float64, error)

// runCells evaluates the nx x opts.seeds() cell grid across opts.workers()
// goroutines and returns vals[xi*seeds+si][ci]. On failure the error of the
// lowest-indexed failing cell that actually ran is returned; which cells ran
// after the first failure depends on scheduling, but successful output never
// does.
func runCells(opts Options, nx, ncurves int, cell cellFunc) ([][]float64, error) {
	return runCellsWith(opts, nx, ncurves, func(_ *struct{}, xi, si int) ([]float64, error) {
		return cell(xi, si)
	})
}

// runCellsWith is runCells with per-worker state: each worker goroutine
// owns one zero S and hands it to every cell it runs, so a cell may reuse
// what the worker's previous cell left in it (a flow.Runner's data plane),
// and no two goroutines share one. A cell's values must not depend on the
// state it is handed, or they would depend on which cells its worker ran
// before it.
func runCellsWith[S any](opts Options, nx, ncurves int, cell func(st *S, xi, si int) ([]float64, error)) ([][]float64, error) {
	seeds := opts.seeds()
	n := nx * seeds
	vals := make([][]float64, n)
	errs := make([]error, n)
	var failed atomic.Bool

	workers := opts.workers()
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st S
			for j := range jobs {
				if failed.Load() {
					continue // drain: no point finishing a doomed figure
				}
				v, err := cell(&st, j/seeds, j%seeds)
				switch {
				case err != nil:
					errs[j] = err
					failed.Store(true)
				case len(v) != ncurves:
					errs[j] = fmt.Errorf("exp: cell (%d,%d) returned %d values, want %d", j/seeds, j%seeds, len(v), ncurves)
					failed.Store(true)
				default:
					vals[j] = v
				}
			}
		}()
	}
	for j := 0; j < n; j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// runGrid is the engine's front door: it evaluates the cell grid over the
// given x values, reduces each (x, curve) column of cell results into a
// stats.Sample in seed order, and appends one series per curve name to fig
// with the mean and 95% CI at every x.
func runGrid(fig *stats.Figure, xs []float64, names []string, opts Options, cell cellFunc) error {
	return runGridWith(fig, xs, names, opts, func(_ *struct{}, xi, si int) ([]float64, error) {
		return cell(xi, si)
	})
}

// runGridWith is runGrid over runCellsWith: every cell gets its worker's S.
func runGridWith[S any](fig *stats.Figure, xs []float64, names []string, opts Options, cell func(st *S, xi, si int) ([]float64, error)) error {
	seeds := opts.seeds()
	vals, err := runCellsWith(opts, len(xs), len(names), cell)
	if err != nil {
		return err
	}
	series := make([]*stats.Series, len(names))
	for i, name := range names {
		series[i] = fig.AddSeries(name)
	}
	for xi, x := range xs {
		for ci := range names {
			sample := stats.NewSample(seeds)
			for si := 0; si < seeds; si++ {
				sample.Add(vals[xi*seeds+si][ci])
			}
			series[ci].Append(x, sample.Mean(), sample.CI95())
		}
	}
	return nil
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}
