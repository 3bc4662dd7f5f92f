package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"wlanmcast/internal/obs"
)

// metricsDocPath is METRICS.md relative to this package.
const metricsDocPath = "../../METRICS.md"

// docFamilies registers the daemon's full metric surface — the base
// registry plus an engine registry after a scenario load and churn
// (the algo_* families register lazily during runs) — and returns the
// merged family list, sorted by name. The scenario and trace are
// fixed so the materialized set is deterministic.
func docFamilies(t *testing.T) []obs.FamilyInfo {
	t.Helper()
	s := newServer()
	s.errlog = io.Discard
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	loadScenario(t, ts)
	var ev eventsResponse
	if code, raw := postTrace(t, ts, 9, 120, &ev); code != http.StatusOK {
		t.Fatalf("POST trace to /v1/events = %d: %s", code, raw)
	}

	s.mu.Lock()
	eng := s.eng
	s.mu.Unlock()
	merged := map[string]obs.FamilyInfo{}
	for _, f := range append(s.base.Families(), eng.Registry().Families()...) {
		prev, ok := merged[f.Name]
		if !ok {
			merged[f.Name] = f
			continue
		}
		if prev.Type != f.Type || prev.Help != f.Help {
			t.Fatalf("family %q registered twice with conflicting type/help:\n%+v\n%+v", f.Name, prev, f)
		}
	}
	out := make([]obs.FamilyInfo, 0, len(merged))
	for _, f := range merged {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// renderMetricsDoc builds the METRICS.md content from a family list.
func renderMetricsDoc(fams []obs.FamilyInfo) string {
	var b strings.Builder
	b.WriteString("# Metrics\n\n")
	b.WriteString("Every metric family the assocd daemon can expose on `/metrics`\n")
	b.WriteString("(Prometheus text exposition): the daemon-lifetime families plus the\n")
	b.WriteString("per-scenario engine families, including the `algo_*` families that\n")
	b.WriteString("register lazily during re-decision runs.\n\n")
	b.WriteString("This file is generated. `TestMetricsDocCurrent` in `cmd/assocd` is\n")
	b.WriteString("the drift gate: it registers everything and fails if this table\n")
	b.WriteString("disagrees. Regenerate with\n\n")
	b.WriteString("    UPDATE_METRICS_MD=1 go test ./cmd/assocd -run TestMetricsDocCurrent\n\n")
	b.WriteString("| Name | Type | Labels | Help |\n")
	b.WriteString("|------|------|--------|------|\n")
	esc := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	for _, f := range fams {
		labels := "—"
		if len(f.LabelKeys) > 0 {
			keys := make([]string, len(f.LabelKeys))
			for i, k := range f.LabelKeys {
				keys[i] = "`" + k + "`"
			}
			labels = strings.Join(keys, ", ")
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", f.Name, f.Type, esc(labels), esc(f.Help))
	}
	return b.String()
}

// TestMetricsDocCurrent is the METRICS.md drift gate. With
// UPDATE_METRICS_MD=1 it rewrites the file instead of failing.
func TestMetricsDocCurrent(t *testing.T) {
	fams := docFamilies(t)
	if len(fams) == 0 {
		t.Fatal("no metric families registered")
	}
	want := renderMetricsDoc(fams)

	if os.Getenv("UPDATE_METRICS_MD") != "" {
		if err := os.WriteFile(metricsDocPath, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d families)", metricsDocPath, len(fams))
		return
	}

	raw, err := os.ReadFile(metricsDocPath)
	if err != nil {
		t.Fatalf("read %s: %v\nregenerate with UPDATE_METRICS_MD=1 go test ./cmd/assocd -run TestMetricsDocCurrent", metricsDocPath, err)
	}
	got := string(raw)
	if got == want {
		return
	}
	// Name the drift precisely before dumping the byte-level verdict:
	// families exposed but undocumented are the dangerous direction.
	for _, f := range fams {
		if !strings.Contains(got, "| `"+f.Name+"` |") {
			t.Errorf("exposed family %q missing from %s", f.Name, metricsDocPath)
		}
	}
	for _, line := range strings.Split(got, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		name := line[3:]
		if i := strings.Index(name, "`"); i >= 0 {
			name = name[:i]
		}
		found := false
		for _, f := range fams {
			if f.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s documents %q, which the daemon no longer exposes", metricsDocPath, name)
		}
	}
	t.Fatalf("%s is stale (help text, labels, or ordering drifted); regenerate with UPDATE_METRICS_MD=1 go test ./cmd/assocd -run TestMetricsDocCurrent", metricsDocPath)
}

// TestMetricsDocLint lints the full materialized exposition — the
// same surface METRICS.md documents — against the Prometheus rules,
// including the label rules.
func TestMetricsDocLint(t *testing.T) {
	s := newServer()
	s.errlog = io.Discard
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	loadScenario(t, ts)
	if code, raw := postTrace(t, ts, 9, 120, nil); code != http.StatusOK {
		t.Fatalf("POST trace to /v1/events = %d: %s", code, raw)
	}
	text := getText(t, ts.URL+"/metrics")
	if err := obs.LintProm(strings.NewReader(text)); err != nil {
		t.Errorf("exposition lint: %v", err)
	}
	// Spot-check the families this PR added are in the surface the
	// doc gate covers.
	fams := docFamilies(t)
	byName := map[string]bool{}
	for _, f := range fams {
		byName[f.Name] = true
	}
	for _, name := range []string{"assocd_stage_seconds"} {
		if !byName[name] {
			t.Errorf("family %q not in the documented surface", name)
		}
	}
}
