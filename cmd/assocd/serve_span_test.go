package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"wlanmcast/internal/obs"
	"wlanmcast/internal/stream"
)

// TestServeStatus pins GET /v1/status: 409 before a scenario, then
// the engine summary and a flight-recorder summary.
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
	if st.Flight == nil || st.Flight.Spans == 0 || st.Flight.Capacity != obs.DefaultFlightSpans {
		t.Errorf("flight summary = %+v, want spans > 0 and capacity %d", st.Flight, obs.DefaultFlightSpans)
	}
}

// TestServeFlightRecord pins GET /v1/debug/flightrecord: a JSON
// flight dump whose spans carry resolved stage names.
func TestServeFlightRecord(t *testing.T) {
	ts := testServer(t)
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/debug/flightrecord", nil, nil); code != http.StatusConflict {
		t.Fatalf("GET /v1/debug/flightrecord before scenario = %d, want 409", code)
	}
	loadScenario(t, ts)
	var ev eventsResponse
	if code, raw := postTrace(t, ts, 5, 60, &ev); code != http.StatusOK {
		t.Fatalf("POST trace to /v1/events = %d: %s", code, raw)
	}
	var dump obs.FlightDump
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/debug/flightrecord", nil, &dump); code != http.StatusOK {
		t.Fatalf("GET /v1/debug/flightrecord = %d: %s", code, raw)
	}
	if dump.Total == 0 || len(dump.Spans) == 0 {
		t.Fatalf("empty flight dump after 60 events: %+v", dump)
	}
	if dump.Capacity != obs.DefaultFlightSpans {
		t.Errorf("dump capacity = %d, want %d", dump.Capacity, obs.DefaultFlightSpans)
	}
	stages := map[string]bool{
		"validate": true, "queue_wait": true, "apply": true,
		"handoff_depart": true, "handoff_arrive": true, "reduce": true,
	}
	for _, sp := range dump.Spans {
		if !stages[sp.Stage] {
			t.Fatalf("span with unknown stage %q: %+v", sp.Stage, sp)
		}
	}
	if len(dump.Open) != 0 {
		t.Errorf("open spans at rest: %+v", dump.Open)
	}
}

// syncWriter is a mutex-guarded buffer for capturing errlog output
// written from daemon goroutines.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestServeSIGQUITDump sends the daemon a real SIGQUIT and checks the
// flight-recorder dump lands on the error log, without stopping the
// server.
func TestServeSIGQUITDump(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := &syncWriter{}
	done := make(chan error, 1)
	go func() { done <- serveOn(ctx, ln, log, serveOptions{}) }()

	base := fmt.Sprintf("http://%s", ln.Addr())
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened; log:\n%s", what, log.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("server up", func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return true
	})

	// Before a scenario loads, the dump reports that instead of a
	// recorder.
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	waitFor("no-scenario dump", func() bool {
		return strings.Contains(log.String(), "SIGQUIT flight dump: no scenario loaded")
	})

	req := scenarioRequest{APs: 20, Users: 50, Sessions: 3, Seed: 7, ActiveUsers: 30}
	if code, raw := doJSON(t, "POST", base+"/v1/scenario", req, nil); code != http.StatusOK {
		t.Fatalf("POST /v1/scenario = %d: %s", code, raw)
	}
	// The daemon lives inside serveOn, so a replica loaded with the same
	// scenario generates the trace.
	replica := newServer()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	mustPost(t, replica, "/v1/scenario", string(body))
	if code, raw := doJSON(t, "POST", base+"/v1/events", serverTrace(t, replica, 5, 40), nil); code != http.StatusOK {
		t.Fatalf("POST trace to /v1/events = %d: %s", code, raw)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	waitFor("flight dump", func() bool {
		i := strings.LastIndex(log.String(), "SIGQUIT flight dump: {")
		if i < 0 {
			return false
		}
		line := log.String()[i+len("SIGQUIT flight dump: "):]
		if j := strings.IndexByte(line, '\n'); j >= 0 {
			line = line[:j]
		}
		var dump obs.FlightDump
		if err := json.Unmarshal([]byte(line), &dump); err != nil {
			t.Fatalf("SIGQUIT dump is not a FlightDump: %v\n%s", err, line)
		}
		return dump.Total > 0
	})

	// Still serving after two SIGQUITs.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("daemon gone after SIGQUIT: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveOn returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveOn did not shut down")
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
