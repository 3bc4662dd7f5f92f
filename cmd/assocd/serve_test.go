package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wlanmcast/internal/engine"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := newServer()
	s.errlog = io.Discard
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// doJSON issues a request with a JSON body and decodes the JSON reply.
func doJSON(t *testing.T, method, url string, body, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

// genTrace generates a seeded churn trace for eng's current state and
// remaps its users onto eng's. GenTrace models the active set as slots
// [0, InitialActive), but after earlier churn the engine's active
// users are arbitrary ids: trace slot k becomes the k-th active user,
// and a join of a never-seen slot takes the next free one.
func genTrace(t *testing.T, eng *engine.Engine, seed int64, events int) []engine.Event {
	t.Helper()
	trace, err := engine.GenTrace(engine.TraceParams{
		Seed:          seed,
		Events:        events,
		Area:          eng.Network().Area,
		Users:         eng.NumUsers(),
		InitialActive: eng.ActiveUsers(),
		Sessions:      eng.Network().NumSessions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var slot, free []int // slot[k] = engine user for trace slot k
	for u := 0; u < eng.NumUsers(); u++ {
		if eng.Active(u) {
			slot = append(slot, u)
		} else {
			free = append(free, u)
		}
	}
	for i := range trace {
		switch k := trace[i].User; {
		case k >= 0 && k < len(slot):
			trace[i].User = slot[k]
		case k == len(slot) && len(free) > 0:
			u := free[len(free)-1]
			free = free[:len(free)-1]
			slot = append(slot, u)
			trace[i].User = u
		default:
			t.Fatalf("trace slot %d does not fit %d active and %d free users", k, len(slot), len(free))
		}
	}
	return trace
}

// serverTrace runs genTrace on s's engine under s.mu.
func serverTrace(t *testing.T, s *server, seed int64, events int) []engine.Event {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	return genTrace(t, s.eng, seed, events)
}

// postTrace sends a generated trace for the daemon behind ts to
// /v1/events as one batch.
func postTrace(t *testing.T, ts *httptest.Server, seed int64, events int, out any) (int, string) {
	t.Helper()
	return doJSON(t, "POST", ts.URL+"/v1/events", serverTrace(t, ts.Config.Handler.(*server), seed, events), out)
}

// traceBody is a generated trace for s as a /v1/events array body.
func traceBody(t *testing.T, s *server, seed int64, events int) string {
	t.Helper()
	b, err := json.Marshal(serverTrace(t, s, seed, events))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func loadScenario(t *testing.T, ts *httptest.Server) statusResponse {
	t.Helper()
	var st statusResponse
	code, raw := doJSON(t, "POST", ts.URL+"/v1/scenario", scenarioRequest{
		APs: 20, Users: 50, Sessions: 3, Seed: 7, ActiveUsers: 30,
	}, &st)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/scenario = %d: %s", code, raw)
	}
	return st
}

func TestServeScenarioAndStatus(t *testing.T) {
	ts := testServer(t)
	st := loadScenario(t, ts)
	if st.APs != 20 || st.Users != 50 || st.ActiveUsers != 30 {
		t.Errorf("status = %+v, want 20 APs / 50 users / 30 active", st)
	}
	if st.TotalLoad <= 0 || st.MaxLoad <= 0 {
		t.Errorf("expected positive loads, got %+v", st)
	}
}

// TestServeShardedScenario loads a scenario carrying the ignored
// "shards" field and checks it still decodes and serves with the usual
// wire semantics, and that a negative count is still refused.
func TestServeShardedScenario(t *testing.T) {
	ts := testServer(t)
	var st statusResponse
	code, raw := doJSON(t, "POST", ts.URL+"/v1/scenario", scenarioRequest{
		APs: 20, Users: 50, Sessions: 3, Seed: 7, ActiveUsers: 30, Shards: 3,
	}, &st)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/scenario (shards=3) = %d: %s", code, raw)
	}

	var ev eventsResponse
	code, raw = postTrace(t, ts, 11, 80, &ev)
	if code != http.StatusOK {
		t.Fatalf("POST trace to /v1/events on shards=3 scenario = %d: %s", code, raw)
	}
	if ev.Applied != 80 {
		t.Errorf("trace applied %d events, want 80", ev.Applied)
	}

	// A mid-batch invalid event still reports the index and the applied
	// prefix count.
	code, raw = doJSON(t, "POST", ts.URL+"/v1/events", []map[string]any{
		{"kind": "ap_down", "user": -1, "ap": 3},
		{"kind": "ap_down", "user": -1, "ap": 3},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid batch = %d, want 400: %s", code, raw)
	}
	if !strings.Contains(raw, "event 1:") || !strings.Contains(raw, "(1 applied)") {
		t.Errorf("batch error %q lacks index/prefix info", raw)
	}

	// A negative shard count is still an engine construction error → 400.
	code, raw = doJSON(t, "POST", ts.URL+"/v1/scenario", scenarioRequest{
		APs: 20, Users: 50, Sessions: 3, Seed: 7, Shards: -2,
	}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("scenario with shards=-2 = %d, want 400: %s", code, raw)
	}
}

func TestServeEventsAndLoads(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)

	// Single event object: activate a free slot.
	var ev eventsResponse
	code, raw := doJSON(t, "POST", ts.URL+"/v1/events", map[string]any{
		"kind": "join", "user": 30, "session": 1,
		"pos": map[string]float64{"x": 100, "y": 100},
	}, &ev)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/events = %d: %s", code, raw)
	}
	if ev.Applied != 1 {
		t.Errorf("applied %d events, want 1", ev.Applied)
	}

	// Array form: move then leave the same user.
	code, raw = doJSON(t, "POST", ts.URL+"/v1/events", []map[string]any{
		{"kind": "move", "user": 30, "pos": map[string]float64{"x": 600, "y": 500}},
		{"kind": "leave", "user": 30},
	}, &ev)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/events (array) = %d: %s", code, raw)
	}
	if ev.Applied != 2 {
		t.Errorf("applied %d events, want 2", ev.Applied)
	}

	var loads struct {
		Loads []float64 `json:"loads"`
		Total float64   `json:"total"`
		Max   float64   `json:"max"`
	}
	code, raw = doJSON(t, "GET", ts.URL+"/v1/loads", nil, &loads)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/loads = %d: %s", code, raw)
	}
	if len(loads.Loads) != 20 {
		t.Errorf("got %d AP loads, want 20", len(loads.Loads))
	}
	sum := 0.0
	for _, l := range loads.Loads {
		sum += l
	}
	if diff := sum - loads.Total; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("loads sum %.6f != reported total %.6f", sum, loads.Total)
	}
}

// TestServeAPFaultEvents drives an AP failure and recovery through the
// public events API and checks the fault gauges track it.
func TestServeAPFaultEvents(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)

	var ev eventsResponse
	code, raw := doJSON(t, "POST", ts.URL+"/v1/events", []map[string]any{
		{"kind": "ap_down", "user": -1, "ap": 3},
	}, &ev)
	if code != http.StatusOK {
		t.Fatalf("POST ap_down = %d: %s", code, raw)
	}
	if ev.Applied != 1 {
		t.Fatalf("applied %d events, want 1", ev.Applied)
	}
	text := getText(t, ts.URL+"/metrics")
	if got := metricValue(t, text, "fault_aps_down"); got != 1 {
		t.Errorf("fault_aps_down = %v after ap_down, want 1", got)
	}

	// Down APs reject repeat failures; recovery brings the gauge back.
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/events", map[string]any{
		"kind": "ap_down", "user": -1, "ap": 3,
	}, nil); code != http.StatusBadRequest {
		t.Errorf("double ap_down = %d, want 400: %s", code, raw)
	}
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/events", map[string]any{
		"kind": "ap_up", "user": -1, "ap": 3,
	}, &ev); code != http.StatusOK {
		t.Fatalf("POST ap_up = %d: %s", code, raw)
	}
	text = getText(t, ts.URL+"/metrics")
	if got := metricValue(t, text, "fault_aps_down"); got != 0 {
		t.Errorf("fault_aps_down = %v after recovery, want 0", got)
	}
	if got := metricValue(t, text, `assocd_events_total{kind="ap_down"}`); got != 1 {
		t.Errorf(`assocd_events_total{kind="ap_down"} = %v, want 1`, got)
	}
	if got := metricValue(t, text, `assocd_events_total{kind="ap_up"}`); got != 1 {
		t.Errorf(`assocd_events_total{kind="ap_up"} = %v, want 1`, got)
	}
}

func TestServeEventRejected(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)
	// User 10 is already active; joining it again must fail with 400.
	code, raw := doJSON(t, "POST", ts.URL+"/v1/events", map[string]any{
		"kind": "join", "user": 10, "session": 0,
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("duplicate join = %d, want 400: %s", code, raw)
	}
	if !strings.Contains(raw, "already active") {
		t.Errorf("error %q does not mention the cause", raw)
	}
}

func TestServeTrace(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)
	var ev eventsResponse
	code, raw := postTrace(t, ts, 3, 60, &ev)
	if code != http.StatusOK {
		t.Fatalf("POST trace to /v1/events = %d: %s", code, raw)
	}
	if ev.Applied != 60 {
		t.Errorf("applied %d trace events, want 60", ev.Applied)
	}
	if ev.Redecisions == 0 {
		t.Error("trace caused no re-decisions")
	}
	// A second trace must apply cleanly on the churned active set —
	// this exercises the slot remapping.
	code, raw = postTrace(t, ts, 4, 60, &ev)
	if code != http.StatusOK {
		t.Fatalf("second POST trace to /v1/events = %d: %s", code, raw)
	}
	if ev.Applied != 60 {
		t.Errorf("second trace applied %d events, want 60", ev.Applied)
	}
}

func TestServeAssocRoundTrip(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)
	var got struct {
		Assoc       json.RawMessage `json:"assoc"`
		ActiveUsers int             `json:"active_users"`
		Satisfied   int             `json:"satisfied"`
	}
	code, raw := doJSON(t, "GET", ts.URL+"/v1/assoc", nil, &got)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/assoc = %d: %s", code, raw)
	}
	if got.ActiveUsers != 30 {
		t.Errorf("active_users = %d, want 30", got.ActiveUsers)
	}
	// PUT the snapshot straight back: a no-op install must succeed.
	req, err := http.NewRequest("PUT", ts.URL+"/v1/assoc", bytes.NewReader(got.Assoc))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /v1/assoc = %d: %s", resp.StatusCode, body)
	}

	// A malformed association (AP id out of range) must be rejected.
	bad := make([]int, 50)
	bad[0] = 99
	b, _ := json.Marshal(bad)
	req, _ = http.NewRequest("PUT", ts.URL+"/v1/assoc", bytes.NewReader(b))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT bad assoc = %d, want 400", resp.StatusCode)
	}
}

// TestServeMultiAssocRoundTrip covers the /v1/multiassoc wire
// surface: the AP-set snapshot, a PUT round-trip on a multi-homed
// scenario, rejection of malformed sets, and the multi-homing fields
// in /v1/status.
func TestServeMultiAssocRoundTrip(t *testing.T) {
	ts := testServer(t)
	var st statusResponse
	code, raw := doJSON(t, "POST", ts.URL+"/v1/scenario", scenarioRequest{
		APs: 20, Users: 50, Sessions: 3, Seed: 7, ActiveUsers: 30, MaxHomes: 2,
	}, &st)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/scenario = %d: %s", code, raw)
	}
	if st.MaxHomes != 2 {
		t.Fatalf("status max_homes = %d, want 2", st.MaxHomes)
	}
	if st.MultiSatisfied < st.Satisfied {
		t.Fatalf("multi_satisfied %d < satisfied %d", st.MultiSatisfied, st.Satisfied)
	}
	var got struct {
		MultiAssoc     json.RawMessage `json:"multi_assoc"`
		MaxHomes       int             `json:"max_homes"`
		ActiveUsers    int             `json:"active_users"`
		Satisfied      int             `json:"satisfied"`
		SecondaryHomes int             `json:"secondary_homes"`
	}
	code, raw = doJSON(t, "GET", ts.URL+"/v1/multiassoc", nil, &got)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/multiassoc = %d: %s", code, raw)
	}
	if got.MaxHomes != 2 || got.ActiveUsers != 30 {
		t.Errorf("max_homes/active_users = %d/%d, want 2/30", got.MaxHomes, got.ActiveUsers)
	}
	if got.SecondaryHomes == 0 {
		t.Error("no secondary homes on a freshly derived multi-homed scenario")
	}
	// PUT the snapshot straight back: a no-op install must succeed
	// (GET after PUT may extend sets, but the snapshot is a fixed
	// point of the derivation).
	req, err := http.NewRequest("PUT", ts.URL+"/v1/multiassoc", bytes.NewReader(got.MultiAssoc))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /v1/multiassoc = %d: %s", resp.StatusCode, body)
	}
	if after := recordGetURL(t, ts, "/v1/multiassoc"); !strings.Contains(after, string(got.MultiAssoc)) {
		t.Fatalf("multi-association changed after a no-op PUT:\nbefore: %s\nafter:  %s", got.MultiAssoc, after)
	}
	// Malformed sets must be rejected: AP out of range, over-cap
	// degree, wrong user count.
	for _, bad := range []string{
		`[[99],` + strings.Repeat("[],", 48) + `[]]`,
		`[[0,1,2],` + strings.Repeat("[],", 48) + `[]]`,
		`[[0],[1]]`,
	} {
		req, _ = http.NewRequest("PUT", ts.URL+"/v1/multiassoc", strings.NewReader(bad))
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT %q = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestServeMultiAssocOff pins the endpoint's single-AP behavior: with
// multi-homing off the AP-set snapshot is exactly the association
// lifted to sets, the cap reports 1, and /v1/status omits the
// multi-homing fields.
func TestServeMultiAssocOff(t *testing.T) {
	ts := testServer(t)
	st := loadScenario(t, ts)
	if st.MaxHomes != 0 || st.MultiSatisfied != 0 {
		t.Fatalf("single-AP status carries multi-homing fields: %+v", st)
	}
	var got struct {
		MaxHomes       int `json:"max_homes"`
		Satisfied      int `json:"satisfied"`
		SecondaryHomes int `json:"secondary_homes"`
	}
	code, raw := doJSON(t, "GET", ts.URL+"/v1/multiassoc", nil, &got)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/multiassoc = %d: %s", code, raw)
	}
	if got.MaxHomes != 1 || got.SecondaryHomes != 0 {
		t.Errorf("single-AP multiassoc: max_homes=%d secondary=%d, want 1/0", got.MaxHomes, got.SecondaryHomes)
	}
	if got.Satisfied != st.Satisfied {
		t.Errorf("lifted satisfied %d != association satisfied %d", got.Satisfied, st.Satisfied)
	}
}

// recordGetURL issues a GET against the test server and returns the
// body.
func recordGetURL(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestServeMetrics(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)
	var ev eventsResponse
	if code, raw := postTrace(t, ts, 5, 40, &ev); code != http.StatusOK {
		t.Fatalf("POST trace to /v1/events = %d: %s", code, raw)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`assocd_events_total{kind="join"}`,
		`assocd_events_total{kind="leave"}`,
		"assocd_redecisions_total",
		"assocd_handoffs_total",
		`assocd_event_latency_seconds_bucket{le="+Inf"} 40`,
		"assocd_event_latency_seconds_count 40",
		"assocd_active_users",
		"assocd_ap_load_max",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestServeRequiresScenario(t *testing.T) {
	ts := testServer(t)
	for _, c := range []struct{ method, path string }{
		{"POST", "/v1/events"},
		{"GET", "/v1/assoc"},
		{"GET", "/v1/loads"},
	} {
		code, raw := doJSON(t, c.method, ts.URL+c.path, map[string]any{}, nil)
		if code != http.StatusConflict {
			t.Errorf("%s %s with no scenario = %d, want 409: %s", c.method, c.path, code, raw)
		}
	}
	// /metrics and /healthz work without a scenario.
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestServeBadRequests(t *testing.T) {
	ts := testServer(t)
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/scenario", map[string]any{"objective": "nope"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad objective = %d, want 400: %s", code, raw)
	}
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/scenario", map[string]any{"mode": "quantum"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad mode = %d, want 400: %s", code, raw)
	}
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/scenario", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/scenario = %d, want 405: %s", code, raw)
	}
	if code, raw := doJSON(t, "DELETE", ts.URL+"/v1/assoc", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/assoc = %d, want 405: %s", code, raw)
	}
	// Generated traces are sent as /v1/events batches; there is no
	// server-side trace route. Nor is there a flight-recorder dump:
	// the trace export is the one recent-history buffer.
	loadScenario(t, ts)
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/trace", map[string]any{"seed": 3, "events": 5}, nil); code != http.StatusNotFound {
		t.Errorf("POST /v1/trace = %d, want 404: %s", code, raw)
	}
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/debug/flightrecord", nil, nil); code != http.StatusNotFound {
		t.Errorf("GET /v1/debug/flightrecord = %d, want 404: %s", code, raw)
	}
}

// TestServePanicRecovery plants a panicking handler on the daemon mux
// and checks the middleware converts the crash into a 500 + counter +
// stack log while the daemon keeps serving.
func TestServePanicRecovery(t *testing.T) {
	s := newServer()
	var logged bytes.Buffer
	s.errlog = &logged
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	for i := 0; i < 2; i++ {
		code, raw := doJSON(t, "GET", ts.URL+"/boom", nil, nil)
		if code != http.StatusInternalServerError {
			t.Fatalf("request %d: GET /boom = %d, want 500: %s", i, code, raw)
		}
		if !strings.Contains(raw, "kaboom") {
			t.Errorf("500 body %q does not carry the panic value", raw)
		}
	}
	if !strings.Contains(logged.String(), "kaboom") || !strings.Contains(logged.String(), "serve_test.go") {
		t.Errorf("panic log lacks the value or a stack trace:\n%s", logged.String())
	}

	// The daemon survived: normal endpoints still answer and the
	// counter accounts for both crashes.
	if code, raw := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("daemon dead after panic: /healthz = %d: %s", code, raw)
	}
	text := getText(t, ts.URL+"/metrics")
	if got := metricValue(t, text, "assocd_panics_total"); got != 2 {
		t.Errorf("assocd_panics_total = %v, want 2", got)
	}
}

// TestServeOversizedBody checks the body cap answers 413 (not a silent
// truncation or a generic 400) on every body-accepting endpoint.
func TestServeOversizedBody(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)
	// A single JSON string token bigger than maxBody: the decoder must
	// consume it whole, so the cap — not a syntax error — trips first.
	big := append(append([]byte{'"'}, bytes.Repeat([]byte{'a'}, maxBody+1)...), '"')
	answered := 0
	for _, c := range []struct{ method, path string }{
		{"POST", "/v1/scenario"},
		{"POST", "/v1/events"},
		{"PUT", "/v1/assoc"},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			// MaxBytesReader closes the connection mid-upload; the
			// client may see the abort instead of the response.
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		answered++
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with %d-byte body = %d, want 413: %s",
				c.method, c.path, len(big), resp.StatusCode, raw)
		}
	}
	if answered == 0 {
		t.Error("no endpoint delivered its 413 before the connection abort")
	}
	// The daemon is still healthy afterwards.
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/loads", nil, nil); code != http.StatusOK {
		t.Fatalf("daemon unhealthy after oversized bodies: /v1/loads = %d: %s", code, raw)
	}
}

// TestServeGracefulShutdown runs the real serveOn loop on an
// ephemeral port, checks it answers, cancels the context (what
// SIGINT/SIGTERM do via signal.NotifyContext in main) and verifies a
// clean exit.
func TestServeGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveOn(ctx, ln, io.Discard, serveOptions{}) }()

	url := fmt.Sprintf("http://%s/healthz", ln.Addr())
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveOn returned %v after cancel, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveOn did not shut down within 5s")
	}
}

// TestServeFlagIntegration drives the whole binary path: run() on an
// ephemeral port, then a signal-style context cancel. It serves with
// or without -serve.
func TestServeFlagIntegration(t *testing.T) {
	for _, serveFlag := range [][]string{{"-serve"}, nil} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close() // run() re-listens on the now-free address

		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan int, 1)
		go func() {
			var errBuf bytes.Buffer
			code := run(ctx, append(serveFlag, "-addr", addr), &errBuf)
			if code != 0 {
				t.Logf("run stderr: %s", errBuf.String())
			}
			done <- code
		}()

		url := "http://" + addr + "/healthz"
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(url)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				break
			}
			if time.Now().After(deadline) {
				cancel()
				t.Fatalf("daemon %v never came up: %v", serveFlag, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		cancel()
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("run %v returned %d after cancel, want 0", serveFlag, code)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("run %v did not exit within 5s", serveFlag)
		}
	}
}
