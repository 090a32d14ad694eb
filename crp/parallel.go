package crp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the fan-out size below which parallelFor stays on the
// calling goroutine: spawning workers costs more than a few dozen cosine
// evaluations.
const parallelThreshold = 64

// parallelFor runs fn(i) for every i in [0, n) across a bounded worker pool
// of at most runtime.GOMAXPROCS(0) goroutines. Chunks of iterations are
// claimed from a shared atomic counter (individual claims would serialize on
// the counter for cheap bodies like one cosine), so callers must not assume
// any ordering; writing results into index i of a pre-sized slice keeps
// output deterministic. Small n runs inline on the calling goroutine. Its
// one caller is scoreVecs: candidate scoring is the only work in the package
// that fans out.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < parallelThreshold {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := n / (workers * 8)
	if chunk < 16 {
		chunk = 16
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
