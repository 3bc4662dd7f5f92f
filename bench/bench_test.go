package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// buildAssocd compiles the daemon once for the whole test.
func buildAssocd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "assocd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/assocd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/assocd: %v\n%s", err, out)
	}
	return bin
}

// TestSpecShape holds BENCHMARK.json to the parts of the contract a
// typo could break: names, units, bounds, and the workload list
// matching the code in both directions.
func TestSpecShape(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q uses characters outside letters, digits, _ . -", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range spec.Workloads {
		check("workload", w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %q, the program has none", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	for name := range workloads {
		if !spec.hasWorkload(name) {
			t.Errorf("the program has workload %q, BENCHMARK.json does not list it", name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		check("per-layer metric", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// TestQuickRuns runs every workload at -quick scale, untraced and
// traced, and holds the printed metric names to BENCHMARK.json in
// both directions (the drift gate), the outputs to the reference, and
// the traced run to leaving its span file behind.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bin := buildAssocd(t)
	for _, w := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-root", "..", "-assocd", bin, "-workload", w.Name, "-seed", "3", "-quick", "-trace", traced}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := spec.EndToEnd
				if traced == "1" {
					want = spec.PerLayer
				}
				var wantNames, gotNames []string
				for _, m := range want {
					wantNames = append(wantNames, m.Name)
					if got, ok := res.Metrics[m.Name]; ok && got.Unit != m.Unit {
						t.Errorf("%s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					// Every listed metric is also printed by name on a line of its own.
					if !strings.Contains(stdout.String(), "\n"+m.Name+" ") {
						t.Errorf("%s is not printed by name", m.Name)
					}
				}
				for name := range res.Metrics {
					gotNames = append(gotNames, name)
				}
				sort.Strings(wantNames)
				sort.Strings(gotNames)
				if strings.Join(wantNames, " ") != strings.Join(gotNames, " ") {
					t.Errorf("metric names drifted\nBENCHMARK.json: %v\nprinted:        %v", wantNames, gotNames)
				}
				if traced == "0" {
					for _, m := range spec.EndToEnd {
						if res.Metrics[m.Name].Value == 0 {
							t.Errorf("end-to-end metric %s is 0", m.Name)
						}
					}
					return
				}
				raw, err := os.ReadFile(filepath.Join("out", "trace-"+w.Name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					Workload string `json:"workload"`
					Spans    []span `json:"spans"`
				}
				if err := json.Unmarshal(raw, &doc); err != nil {
					t.Fatal(err)
				}
				if doc.Workload != w.Name || len(doc.Spans) < 5 {
					t.Errorf("trace file holds workload %q and %d spans", doc.Workload, len(doc.Spans))
				}
				for _, s := range doc.Spans {
					if s.End < s.Start || s.Parent >= s.ID {
						t.Errorf("malformed span %+v", s)
					}
				}
			})
		}
	}
}

// TestRefusesUnverified: a run that did not check its outputs exits
// non-zero and prints no result.
func TestRefusesUnverified(t *testing.T) {
	r := &runner{name: "none", root: t.TempDir(), log: &bytes.Buffer{},
		e2e: map[string]float64{}, layer: map[string]float64{}, counts: map[string]int{}}
	_, err := r.execute(context.Background(), func(_ context.Context, r *runner) error {
		r.attempted = 10 // measured, never verified
		return nil
	})
	if err != errNotVerified {
		t.Fatalf("execute returned %v, want errNotVerified", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20, 30, 40, 50], n=4) → [15.0, 30.0, 45.0]
	if q1, q3 = quartiles([]float64{10, 20, 30, 40, 50}); q1 != 15 || q3 != 45 {
		t.Errorf("quartiles = %v, %v; want 15, 45", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "events_per_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	noisy := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2} }
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, tight(100), tight(101), "within bound"},
		{"slower", lower, tight(100), tight(120), "worse"},
		{"faster", lower, tight(100), tight(80), "better"},
		{"throughput fell", higher, tight(100), tight(85), "worse"},
		{"throughput rose", higher, tight(100), tight(115), "better"},
		{"too noisy to tell", lower, noisy(100), noisy(115), "unresolved"},
		{"noisy but every run better", lower, noisy(100), noisy(40), "better"},
	} {
		if _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
