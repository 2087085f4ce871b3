package exp

// Parallel experiment execution. Every simulation run (a des.Kernel plus
// the network built on it) is fully self-contained, so the per-run fault
// simulations of Table 2 and Table 3 are embarrassingly parallel. The
// runner executes runs on a bounded worker pool and hands results back
// in run-index order, which keeps aggregation — and therefore every
// rendered table — bit-identical to a sequential execution.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// runConfig collects the experiment-execution options.
type runConfig struct {
	workers int
}

// Option configures how an experiment executes (not what it computes).
type Option func(*runConfig)

// WithParallelism sets the number of worker goroutines used for
// independent simulation runs. n <= 1 means sequential; the default is
// runtime.GOMAXPROCS(0). Results are aggregated in run order either
// way, so the parallelism level never changes an experiment's output.
func WithParallelism(n int) Option {
	return func(c *runConfig) { c.workers = n }
}

// newRunConfig applies options over the defaults.
func newRunConfig(opts []Option) runConfig {
	c := runConfig{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&c)
	}
	if c.workers < 1 {
		c.workers = 1
	}
	return c
}

// runIndexed executes fn(0..n-1) on up to `workers` goroutines and
// returns the results in index order. On error it returns the error of
// the lowest-numbered failing run (matching what a sequential loop
// would report). With workers <= 1 it degenerates to a plain loop.
func runIndexed[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
