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
	w := min(Workers, n)
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

// simsBuilt counts the scenarios the experiments have built, at the three
// places they are built (testbed, FTPRates, webCrashFleet);
// TestRenderIsPure checks that rendering builds none.
var simsBuilt atomic.Int64
