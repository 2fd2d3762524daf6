//go:build race

package ssta

// raceEnabled reports a -race build, where sync.Pool drops entries at random
// and goroutines carry detector state, so allocation counts are not the
// program's own.
const raceEnabled = true
