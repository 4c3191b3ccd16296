package flowercdn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"flowercdn/internal/simkernel"
)

// This file implements the parallel experiment engine. The paper's
// evaluation (§6) is a grid of independent parameter sweeps; every point
// builds its own kernel, topology and metrics stack, so points can run on
// separate cores with no shared state. RunCampaign fans points out over a
// worker pool and collects results in point order, which makes a parallel
// run's output byte-identical to the sequential one.

// Point is one independent simulation of a campaign: complete parameters
// (including the seed) plus which system to run.
type Point struct {
	Label  string
	Params Params
	Kind   SystemKind // zero value runs Flower-CDN
}

// workers resolves the effective worker count for n points.
func workers(parallel, n int) int {
	if parallel < 0 {
		parallel = runtime.NumCPU()
	}
	return max(min(parallel, n), 1)
}

// runPoint dispatches one point to the matching runner.
func runPoint(pt Point) (Result, error) {
	if pt.Kind == KindSquirrel {
		return RunSquirrel(pt.Params)
	}
	return RunFlower(pt.Params)
}

// RunCampaign executes every point and returns results indexed like points.
// parallel is the worker count: 0 or 1 runs one worker, which takes the
// points in order, n>1 uses n workers, and a negative value uses one worker
// per CPU. Results depend only on each point's Params (each run owns its
// kernel, topology, metrics and RNGs), so the output is identical no matter
// how many workers execute it or in which order points finish. On failure,
// in-flight points drain, not-yet-started points are skipped, and the
// lowest-index error is returned; one worker runs the points in order and
// stops at the first failure.
func RunCampaign(points []Point, parallel int) ([]Result, error) {
	results := make([]Result, len(points))
	idx := make(chan int)
	errs := make([]error, len(points))
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < workers(parallel, len(points)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if failed.Load() {
					continue // a point already failed; drain without running
				}
				res, err := runPoint(points[i])
				if err != nil {
					errs[i] = fmt.Errorf("campaign point %d (%s): %w", i, points[i].Label, err)
					failed.Store(true)
					continue
				}
				results[i] = res
			}
		}()
	}
	for i := range points {
		idx <- i
	}
	close(idx)
	wg.Wait()
	// Report the lowest-index failure, whichever worker met it first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// PointSeed derives the seed of grid point idx from the campaign seed.
// It is a pure function of its inputs (simkernel.Mix64), so adding points
// to a grid never perturbs the seeds of existing points.
func PointSeed(campaignSeed int64, idx int) int64 {
	return int64(simkernel.Mix64(uint64(campaignSeed) + uint64(idx+1)*0x9e3779b97f4a7c15))
}

// gridPoints crosses localities × gossip period × view size (nil slices
// fall back to a default grid). Cell seeds derive from p.Seed via PointSeed,
// so the grid is reproducible and each cell is statistically independent.
func gridPoints(p Params, localities []int, periods []simkernel.Time, views []int) []Point {
	if len(localities) == 0 {
		localities = []int{3, 6}
	}
	if len(periods) == 0 {
		periods = []simkernel.Time{5 * simkernel.Minute, 30 * simkernel.Minute}
	}
	if len(views) == 0 {
		views = []int{20, 50}
	}
	var points []Point
	for _, k := range localities {
		for _, tg := range periods {
			for _, vs := range views {
				pv := p
				pv.Localities = k
				pv.TGossip = tg
				pv.TKeepalive = tg
				pv.ViewSize = vs
				pv.Seed = PointSeed(p.Seed, len(points))
				points = append(points, Point{Label: fmt.Sprintf("k=%d T=%s V=%d", k, tg, vs), Params: pv})
			}
		}
	}
	return points
}
