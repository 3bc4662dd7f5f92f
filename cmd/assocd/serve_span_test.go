package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"wlanmcast/internal/obs"
	"wlanmcast/internal/stream"
)

// TestServeStatus pins GET /v1/status: 409 before a scenario, then
// the engine summary and nothing else (no flight-recorder summary).
func TestServeStatus(t *testing.T) {
	ts := testServer(t)
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/status", nil, nil); code != http.StatusConflict {
		t.Fatalf("GET /v1/status before scenario = %d, want 409", code)
	}

	var st statusResponse
	code, raw := doJSON(t, "POST", ts.URL+"/v1/scenario", scenarioRequest{
		APs: 20, Users: 50, Sessions: 3, Seed: 7, ActiveUsers: 30, Shards: 3,
	}, &st)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/scenario = %d: %s", code, raw)
	}
	var ev eventsResponse
	if code, raw := postTrace(t, ts, 11, 80, &ev); code != http.StatusOK {
		t.Fatalf("POST trace to /v1/events = %d: %s", code, raw)
	}

	st = statusResponse{}
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/status", nil, &st); code != http.StatusOK {
		t.Fatalf("GET /v1/status = %d: %s", code, raw)
	}
	if st.APs != 20 || st.Users != 50 || st.ActiveUsers <= 0 || st.TotalLoad <= 0 {
		t.Errorf("status = %+v, want 20 APs / 50 users, active users and load", st)
	}
	var keys map[string]any
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/status", nil, &keys); code != http.StatusOK {
		t.Fatalf("GET /v1/status = %d: %s", code, raw)
	}
	if _, ok := keys["flight"]; ok {
		t.Errorf("status has a flight key: %v", keys)
	}
}

// TestServeStreamMetricsConsistency holds a stream open mid-flight
// and asserts the assocd_stream_* and engine event series stay
// consistent through 429 contention and a mid-stream error frame:
// connections count only admitted streams, busy counts the rejected
// one, error frames count once, and the engine's event counters sum
// to exactly the stream's applied events.
func TestServeStreamMetricsConsistency(t *testing.T) {
	ts := testServer(t)
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/scenario", scenarioRequest{
		APs: 20, Users: 50, Sessions: 3, Seed: 7, ActiveUsers: 30, Shards: 3,
	}, nil); code != http.StatusOK {
		t.Fatalf("POST /v1/scenario = %d: %s", code, raw)
	}

	// Open a window=1 stream over a pipe so it stays live between
	// events.
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/events/stream?window=1", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream = %d: %s", resp.StatusCode, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	nextFrame := func() stream.Frame {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var f stream.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		return f
	}

	// The stream opens with its session frame.
	if f := nextFrame(); f.Session == nil {
		t.Fatalf("first frame %+v, want session", f)
	}

	// Two valid events, acked one window each.
	for i, line := range []string{
		`{"kind":"join","user":30,"session":1,"pos":{"x":100,"y":100}}`,
		`{"kind":"move","user":30,"pos":{"x":600,"y":500}}`,
	} {
		if _, err := io.WriteString(pw, line+"\n"); err != nil {
			t.Fatal(err)
		}
		f := nextFrame()
		if f.Ack == nil || f.Ack.Seq != i+1 {
			t.Fatalf("event %d: frame %+v, want ack with seq %d", i, f, i+1)
		}
	}

	// A second stream while the first holds the slot: honest 429.
	if code, frames := postStream(t, ts.URL+"/v1/events/stream", ""); code != http.StatusTooManyRequests {
		t.Fatalf("concurrent stream = %d (%+v), want 429", code, frames)
	}

	// An invalid event (join of an active user) terminates the stream
	// with one in-band error frame.
	if _, err := io.WriteString(pw, `{"kind":"join","user":0,"session":0,"pos":{"x":100,"y":100}}`+"\n"); err != nil {
		t.Fatal(err)
	}
	f := nextFrame()
	if f.Error == "" || f.Event != 2 {
		t.Fatalf("frame %+v, want error frame for event 2", f)
	}
	pw.Close()

	text := getText(t, ts.URL+"/metrics")
	for series, want := range map[string]float64{
		"assocd_stream_connections_total": 1,
		"assocd_stream_busy_total":        1,
		"assocd_stream_errors_total":      1,
		"assocd_stream_events_total":      2,
		"assocd_stream_windows_total":     2,
		"assocd_stream_active":            0,
	} {
		if got := metricValue(t, text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	var applied float64
	for _, kind := range []string{"join", "leave", "move", "demand"} {
		applied += metricValue(t, text, fmt.Sprintf(`assocd_events_total{kind="%s"}`, kind))
	}
	if applied != 2 {
		t.Errorf("engine events sum = %v, want 2 (the stream's applied events)", applied)
	}
	if err := obs.LintProm(strings.NewReader(text)); err != nil {
		t.Errorf("exposition lint after stream churn: %v", err)
	}
}
