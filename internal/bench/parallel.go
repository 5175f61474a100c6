package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the number of goroutines experiments fan their independent
// simulations across. Each simulation is single-threaded and fully
// determined by its seed, so results are identical for any worker count;
// only wall-clock time changes. Tests pin it to compare.
var Workers = runtime.NumCPU()

// parallelEach runs fn(0), …, fn(n-1) across min(Workers, n) goroutines and
// waits for all of them. Callers communicate results through index-addressed
// slots, and the error reported is the lowest-indexed one, so the outcome is
// independent of scheduling.
func parallelEach(n int, fn func(i int) error) error {
	return parallelEachBudget(n, 1, fn)
}

// parallelEachBudget is parallelEach for simulations that are themselves
// parallel: costPerSim is the number of cores one simulation occupies (its
// shard-worker count), and the fan-out is limited to Workers/costPerSim
// concurrent simulations so that simulations x shard workers never exceeds
// the Workers budget (GOMAXPROCS by default). Aggregation stays config-order:
// results land in index-addressed slots and the lowest-indexed error wins,
// exactly as in parallelEach, so mixing sharded and sequential simulations
// never reorders the output.
func parallelEachBudget(n, costPerSim int, fn func(i int) error) error {
	if costPerSim < 1 {
		costPerSim = 1
	}
	w := Workers / costPerSim
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// simsBuilt counts the scenarios the experiments have built, at the four
// places they are built (testbed, FTPRates, webCrashFleet, shardScalePoint);
// TestRenderIsPure checks that rendering builds none.
var simsBuilt atomic.Int64
