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

// TestRunStrayArguments: flag parsing stops at the first positional
// argument, so `assocd -serve :8080 -multihome 2` would drop
// -multihome silently; the daemon refuses to start instead.
func TestRunStrayArguments(t *testing.T) {
	for _, c := range []struct {
		args  []string
		stray string
	}{
		{[]string{"extra"}, "extra"},
		{[]string{"-serve", ":8080", "-multihome", "2"}, ":8080"},
		{[]string{"-addr", "127.0.0.1:0", "a", "b"}, "a"},
	} {
		var errOut strings.Builder
		code := run(context.Background(), c.args, &errOut)
		if code != 2 || !strings.Contains(errOut.String(), `unexpected argument "`+c.stray+`"`) {
			t.Errorf("run %v exited %d (%q), want 2 naming %q", c.args, code, errOut.String(), c.stray)
		}
	}
}
