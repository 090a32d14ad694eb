//go:build race

package crp

// raceEnabled reports a -race build, where sync.Pool drops items at random,
// so a pooled buffer's reuse cannot be pinned by counting allocations.
const raceEnabled = true
