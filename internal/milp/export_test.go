package milp

// Test-only access for the external digest test, which imports the
// insertion flow (an import cycle for an in-package test).

// SetTestHookSolved installs f as the SolveArena observer (nil removes it).
func SetTestHookSolved(f func(*Arena, Solution, error)) { testHookSolved = f }

// Random problem generators shared with the in-package tests.
var (
	RandomIntegerMILP = randomIntegerMILP
	RandomCoverMILP   = randomCoverMILP
	RandomMixedMILP   = randomMixedMILP
)
