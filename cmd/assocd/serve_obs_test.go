package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wlanmcast/internal/obs"
)

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// metricValue extracts one sample value from an exposition; series is
// the full series name including any label block.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(series)+1:]), 64)
			if err != nil {
				t.Fatalf("series %s has unparseable value in %q: %v", series, line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in exposition", series)
	return 0
}

// TestServeMetricsLint runs the promtext linter over the live
// exposition and checks the PR-3 series appear alongside the original
// names.
func TestServeMetricsLint(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)
	var ev eventsResponse
	if code, raw := postTrace(t, ts, 5, 40, &ev); code != http.StatusOK {
		t.Fatalf("POST trace to /v1/events = %d: %s", code, raw)
	}
	getText(t, ts.URL+"/metrics") // prime the http counters with a /metrics hit
	text := getText(t, ts.URL+"/metrics")
	if err := obs.LintProm(strings.NewReader(text)); err != nil {
		t.Fatalf("live /metrics fails lint: %v\n%s", err, text)
	}
	newSeries := []string{
		"assocd_scenarios_loaded_total",
		"assocd_panics_total",
		`assocd_events_total{kind="ap_down"}`,
		`assocd_events_total{kind="ap_up"}`,
		"fault_aps_down",
		"fault_orphaned_users_total",
		"fault_unsatisfied_users",
		`assocd_http_requests_total{path="/metrics"}`,
		`assocd_http_requests_total{path="/v1/events"}`,
		"assocd_http_request_seconds_count",
		`assocd_http_request_seconds_bucket{le="+Inf"}`,
		"assocd_trace_events",
		"assocd_trace_dropped",
		`algo_convergence_rounds_total{objective="MLA"}`,
		`algo_moves_total{objective="MLA"}`,
		`algo_runs_converged_total{objective="MLA",converged="true"}`,
	}
	for _, s := range newSeries {
		if !strings.Contains(text, s+" ") {
			t.Errorf("/metrics missing new series %q", s)
		}
	}
}

// TestServeTraceExportMatchesMetrics is the PR's acceptance check:
// replaying the exported JSONL trace must reproduce the event counts
// /metrics reports.
func TestServeTraceExportMatchesMetrics(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)
	var ev eventsResponse
	if code, raw := postTrace(t, ts, 9, 80, &ev); code != http.StatusOK {
		t.Fatalf("POST trace to /v1/events = %d: %s", code, raw)
	}

	resp, err := http.Get(ts.URL + "/v1/trace/export")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace export Content-Type = %q", ct)
	}
	events, err := obs.ReadJSONL(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("parse exported trace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("exported trace is empty")
	}

	text := getText(t, ts.URL+"/metrics")

	// Per-kind churn events must match assocd_events_total exactly.
	kinds := make(map[string]float64)
	var redecisions, handoffs float64
	for _, e := range events {
		switch e.Type {
		case obs.EvChurn:
			kinds[e.Kind]++
			redecisions += float64(e.N)
		case obs.EvHandoff:
			handoffs++
		}
	}
	for _, kind := range []string{"join", "leave", "move", "demand"} {
		want := metricValue(t, text, fmt.Sprintf("assocd_events_total{kind=%q}", kind))
		if kinds[kind] != want {
			t.Errorf("trace has %v %s events, /metrics reports %v", kinds[kind], kind, want)
		}
	}
	if want := metricValue(t, text, "assocd_redecisions_total"); redecisions != want {
		t.Errorf("trace churn events sum to %v redecisions, /metrics reports %v", redecisions, want)
	}
	if want := metricValue(t, text, "assocd_handoffs_total"); handoffs != want {
		t.Errorf("trace has %v handoff events, /metrics reports %v", handoffs, want)
	}
	// And the daemon's own trace gauge must count what we exported
	// (nothing was evicted at this volume).
	if dropped := metricValue(t, text, "assocd_trace_dropped"); dropped != 0 {
		t.Fatalf("trace ring dropped %v events during a small run", dropped)
	}
	if total := metricValue(t, text, "assocd_trace_events"); total != float64(len(events)) {
		t.Errorf("exported %d events, assocd_trace_events = %v", len(events), total)
	}
}

// TestServeMetricsConcurrentWithEvents hammers /v1/events and
// /metrics at the same time — the read-path race the registry
// migration fixes. scripts/check.sh runs this package under -race.
func TestServeMetricsConcurrentWithEvents(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)

	const hammers = 4
	var wg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user := 30 + g // slots 30.. are free after loadScenario
			for i := 0; i < 25; i++ {
				code, raw := doJSON(t, "POST", ts.URL+"/v1/events", []map[string]any{
					{"kind": "join", "user": user, "session": 0,
						"pos": map[string]float64{"x": 100 * float64(g), "y": 50}},
					{"kind": "leave", "user": user},
				}, nil)
				if code != http.StatusOK {
					t.Errorf("hammer %d: POST /v1/events = %d: %s", g, code, raw)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			text := getText(t, ts.URL+"/metrics")
			if err := obs.LintProm(strings.NewReader(text)); err != nil {
				t.Errorf("mid-churn /metrics fails lint: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	text := getText(t, ts.URL+"/metrics")
	if got := metricValue(t, text, `assocd_events_total{kind="join"}`); got != hammers*25 {
		t.Errorf("joins = %v, want %d", got, hammers*25)
	}
	if got := metricValue(t, text, `assocd_events_total{kind="leave"}`); got != hammers*25 {
		t.Errorf("leaves = %v, want %d", got, hammers*25)
	}
}

// TestServePprof checks the profiling endpoints answer on the daemon
// mux.
func TestServePprof(t *testing.T) {
	ts := testServer(t)
	if text := getText(t, ts.URL+"/debug/pprof/"); !strings.Contains(text, "goroutine") {
		t.Error("/debug/pprof/ index does not list profiles")
	}
	getText(t, ts.URL+"/debug/pprof/cmdline")
	resp, err := http.Get(ts.URL + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/heap = %d", resp.StatusCode)
	}
}
