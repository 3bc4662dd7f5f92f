package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlanmcast/internal/experiments"
	"wlanmcast/internal/scenario"
)

// runMode runs the command with args and returns its exit code,
// stdout and stderr.
func runMode(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// saveSpec writes spec as a scenario file and returns its path.
func saveSpec(t *testing.T, spec *scenario.Spec) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestModesAreNotExperimentIDs pins that a mode name never shadows an
// experiment id or group.
func TestModesAreNotExperimentIDs(t *testing.T) {
	for _, name := range []string{"sim", "gen", "netsim"} {
		if _, ok := experiments.GetAny(name); ok {
			t.Errorf("mode %q is also an experiment id", name)
		}
		if _, err := resolveIDs([]string{name}); err == nil {
			t.Errorf("mode %q also resolves as an experiment group", name)
		}
	}
}

func TestAlgorithmByName(t *testing.T) {
	names := []string{
		"ssa", "ssa-budget", "mla-c", "mla-d", "bla-c", "bla-d",
		"mnu-c", "mnu-d", "mla-opt", "bla-opt", "mnu-opt", "MLA-C",
	}
	for _, name := range names {
		alg, err := algorithmByName(name)
		if err != nil {
			t.Errorf("algorithmByName(%q): %v", name, err)
		}
		if alg == nil || alg.Name() == "" {
			t.Errorf("algorithmByName(%q) returned a nameless algorithm", name)
		}
	}
	if _, err := algorithmByName("bogus"); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestLoadNetworkGenerates(t *testing.T) {
	n, err := loadNetwork("", scenario.Params{NumAPs: 5, NumUsers: 10, NumSessions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumAPs() != 5 || n.NumUsers() != 10 {
		t.Errorf("sizes = %d/%d, want 5/10", n.NumAPs(), n.NumUsers())
	}
}

func TestLoadNetworkFromFile(t *testing.T) {
	spec, err := scenario.Generate(scenario.Params{NumAPs: 3, NumUsers: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	n, err := loadNetwork(saveSpec(t, spec), scenario.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumAPs() != 3 || n.NumUsers() != 6 {
		t.Errorf("sizes = %d/%d, want 3/6", n.NumAPs(), n.NumUsers())
	}
	if _, err := loadNetwork(filepath.Join(t.TempDir(), "missing.json"), scenario.Params{}); err == nil {
		t.Error("missing file should error")
	}
}

// TestSimPrintsScenarioBudget checks sim reports the budget the loaded
// scenario carries, not the -budget flag's default.
func TestSimPrintsScenarioBudget(t *testing.T) {
	spec, err := scenario.Generate(scenario.Params{NumAPs: 4, NumUsers: 8, Budget: 0.3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runMode(t, "sim", "-scenario", saveSpec(t, spec), "-alg", "ssa")
	if code != 0 {
		t.Fatalf("sim exited %d: %s", code, errOut)
	}
	if !strings.HasPrefix(out, "network: 4 APs, 8 users, 5 sessions, budget 0.300\n") {
		t.Errorf("sim output does not report budget 0.300:\n%s", out)
	}
}

func TestSimBadFlags(t *testing.T) {
	if code, _, _ := runMode(t, "sim", "-alg", "bogus"); code != 2 {
		t.Errorf("unknown -alg exited %d, want 2", code)
	}
	if code, _, _ := runMode(t, "sim", "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag exited %d, want 2", code)
	}
}

func TestBuildSpecExamples(t *testing.T) {
	tests := []struct {
		example     string
		users, aps  int
		wantErr     bool
		wantKind    scenario.Kind
		wantBudgets float64
	}{
		{example: "figure1", users: 5, aps: 2, wantKind: scenario.KindRates, wantBudgets: 1},
		{example: "figure1-mnu", users: 5, aps: 2, wantKind: scenario.KindRates, wantBudgets: 1},
		{example: "figure4", users: 4, aps: 2, wantKind: scenario.KindRates, wantBudgets: 1},
		{example: "bogus", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.example, func(t *testing.T) {
			spec, err := buildSpec(tt.example, scenario.Params{})
			if tt.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if spec.Kind != tt.wantKind || spec.Budget != tt.wantBudgets {
				t.Errorf("spec kind/budget = %v/%v", spec.Kind, spec.Budget)
			}
			n, err := spec.Network()
			if err != nil {
				t.Fatal(err)
			}
			if n.NumUsers() != tt.users || n.NumAPs() != tt.aps {
				t.Errorf("sizes = %d/%d, want %d/%d", n.NumAPs(), n.NumUsers(), tt.aps, tt.users)
			}
		})
	}
}

func TestBuildSpecGenerated(t *testing.T) {
	spec, err := buildSpec("", scenario.Params{NumAPs: 4, NumUsers: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != scenario.KindGeometric || len(spec.APPositions) != 4 {
		t.Errorf("generated spec wrong: kind=%v aps=%d", spec.Kind, len(spec.APPositions))
	}
}

func TestPlacementByName(t *testing.T) {
	if placements["grid"] != scenario.Grid ||
		placements["clustered"] != scenario.Clustered ||
		placements["uniform"] != scenario.Uniform {
		t.Error("placement mapping wrong")
	}
	for _, name := range []string{"whatever", "gird"} {
		if code, out, errOut := runMode(t, "gen", "-placement", name); code != 2 || out != "" || !strings.Contains(errOut, "unknown placement") {
			t.Errorf("gen -placement %s exited %d with output %q (%q), want 2 and none", name, code, out, errOut)
		}
	}
}

func TestNetsimSingle(t *testing.T) {
	code, out, errOut := runMode(t, "netsim", "-objective", "bla", "-aps", "10", "-users", "20", "-max-time", "30s")
	if code != 0 {
		t.Fatalf("netsim exited %d: %s", code, errOut)
	}
	if !strings.Contains(out, "network: 10 APs, 20 users") {
		t.Errorf("missing network line in:\n%s", out)
	}
	if !strings.Contains(out, "signaling:") {
		t.Errorf("missing signaling line in:\n%s", out)
	}
}

func TestNetsimBatch(t *testing.T) {
	code, out, errOut := runMode(t, "netsim", "-objective", "bla", "-aps", "10", "-users", "20", "-max-time", "30s",
		"-runs", "3", "-parallel", "2")
	if code != 0 {
		t.Fatalf("netsim exited %d: %s", code, errOut)
	}
	for _, want := range []string{"batch: 3 runs, seeds 1..3", "converged", "mean signaling"} {
		if !strings.Contains(out, want) {
			t.Errorf("batch output missing %q in:\n%s", want, out)
		}
	}
}

func TestNetsimBadFlags(t *testing.T) {
	if code, _, errOut := runMode(t, "netsim", "-objective", "nope"); code != 2 || !strings.Contains(errOut, `unknown objective "nope"`) {
		t.Errorf("bad objective exited %d (%q), want 2", code, errOut)
	}
	if code, _, _ := runMode(t, "netsim", "-runs", "0"); code != 2 {
		t.Errorf("-runs 0 exited %d, want 2", code)
	}
}

// TestModeStrayArguments: flag parsing stops at the first positional
// argument, so every flag after it would be dropped silently (`sim
// extra -alg bogus` ran MLA on the default network); each mode exits
// 2 naming the argument instead, before doing any work.
func TestModeStrayArguments(t *testing.T) {
	for _, args := range [][]string{
		{"sim", "extra", "-alg", "bogus"},
		{"sim", "-aps", "5", "-users", "5", "extra"},
		{"gen", "extra", "-placement", "gird"},
		{"gen", "-example", "figure1", "extra"},
		{"netsim", "extra", "-objective", "nope"},
		{"netsim", "-aps", "5", "extra", "other"},
	} {
		code, out, errOut := runMode(t, args...)
		if code != 2 || out != "" || !strings.Contains(errOut, `unexpected argument "extra"`) {
			t.Errorf("%q exited %d with output %q (%q), want 2 naming \"extra\"", args, code, out, errOut)
		}
	}
}

// TestModeScenarioBesideGeneratorFlags: with -scenario the file fixes
// the network, so an explicitly set generator flag beside it is an
// error rather than silently ignored.
func TestModeScenarioBesideGeneratorFlags(t *testing.T) {
	path := saveSpec(t, scenario.Figure1Spec(1, 1))
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"sim", "-scenario", path, "-budget", "0.3"}, "-budget"},
		{[]string{"sim", "-basic-rate", "-scenario", path}, "-basic-rate"},
		{[]string{"sim", "-scenario", path, "-aps", "200"}, "-aps"},
		{[]string{"netsim", "-scenario", path, "-users", "9"}, "-users"},
		{[]string{"netsim", "-sessions", "2", "-scenario", path}, "-sessions"},
	} {
		code, out, errOut := runMode(t, c.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, c.flag+" cannot be combined with -scenario") {
			t.Errorf("%q exited %d with output %q (%q), want 2 naming %s", c.args, code, out, errOut, c.flag)
		}
	}
	// The same flags without -scenario, and -scenario with the flags
	// it does not fix, still run.
	if code, _, errOut := runMode(t, "sim", "-scenario", path, "-seed", "3", "-alg", "ssa"); code != 0 {
		t.Errorf("sim -scenario -seed exited %d: %s", code, errOut)
	}
	if code, _, errOut := runMode(t, "sim", "-budget", "0.3", "-aps", "5", "-users", "5", "-alg", "ssa"); code != 0 {
		t.Errorf("sim without -scenario exited %d: %s", code, errOut)
	}
}
