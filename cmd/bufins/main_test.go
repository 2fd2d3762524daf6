package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestRunDigest pins run()'s stdout for one full flow (critical pairs,
// insertion, grouping and yield) to a digest recorded from the command's
// output before its main body moved into run.
func TestRunDigest(t *testing.T) {
	const want = "e7b431133c11ed1c5d5a069f687643036bb34a9ef5481169a12816243289347e"
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
