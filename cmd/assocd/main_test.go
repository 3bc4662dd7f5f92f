package main

import (
	"context"
	"strings"
	"testing"
)

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "0"},
		{"-serve", "-shards", "0"},
		// The simulation flags moved to experiments netsim.
		{"-objective", "bla"},
		{"-runs", "4"},
	} {
		var errOut strings.Builder
		if code := run(context.Background(), args, &errOut); code != 2 {
			t.Errorf("run %v exited %d, want 2: %s", args, code, errOut.String())
		}
	}
}
