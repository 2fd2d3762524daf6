//go:build race

package ssta

// raceEnabled reports a -race build, where goroutines carry detector
// state, so allocation counts are not the program's own.
const raceEnabled = true
