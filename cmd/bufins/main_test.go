package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestRunDigest pins run()'s stdout for one full flow (critical pairs,
// insertion, grouping and yield) to a digest recorded from the command's
// output before its main body moved into run, and re-recorded when support
// projection replaced the per-sample concentration ILP (plans move where
// supports tie; insertion's TestPlanEquivalence bounds the move) and when
// the projection took the componentwise-least optimum (two step-1 tuning
// averages moved).
func TestRunDigest(t *testing.T) {
	const want = "0c2d2d1da6e9bb080c3fac796a96c716031e0052d8a2df0371c7a8cea1009860"
	var out bytes.Buffer
	if err := run([]string{"-preset", "s9234", "-samples", "200", "-eval", "1000"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want {
		t.Errorf("stdout digest %s, want %s\n%s", got, want, out.Bytes())
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-preset", "s9234", "-target", "mu+3s"},
		{"-preset", "nosuch"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("run(%q) succeeded, want an error", args)
		}
	}
}
