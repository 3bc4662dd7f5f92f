package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wlanmcast/internal/obs"
)

// mockDaemon is a minimal stand-in for assocd's scenario + stream +
// metrics surface, enough to drive loadgen's full client path without
// importing the daemon (cmd packages cannot import each other).
type mockDaemon struct {
	reg      *obs.Registry
	lat      *obs.Histogram
	stages   *obs.HistogramVec
	events   atomic.Int64
	scenario atomic.Int64
	// uptime feeds assocd_uptime_seconds (default: time since the
	// mock was built). Set it before serving.
	uptime func() float64
}

func newMockDaemon() *mockDaemon {
	started := time.Now()
	d := &mockDaemon{reg: obs.NewRegistry(), uptime: func() float64 { return time.Since(started).Seconds() }}
	d.reg.GaugeFunc("assocd_uptime_seconds", "Time since the daemon started.", func() float64 { return d.uptime() })
	d.lat = d.reg.Histogram("assocd_event_latency_seconds", "Wall-clock time to apply one event.", obs.DefaultLatencyBounds())
	d.stages = d.reg.HistogramVec("assocd_stage_seconds", "Pipeline stage cost.", obs.DefaultLatencyBounds(),
		"stage", []string{"queue_wait", "apply", "reduce"})
	return d
}

func (d *mockDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/scenario":
		d.scenario.Add(1)
		var req map[string]any
		json.NewDecoder(r.Body).Decode(&req)
		fmt.Fprintf(w, `{"aps":%v,"users":%v,"active_users":%v,"shards":1}`,
			req["aps"], req["users"], req["active_users"])
	case "/v1/events/stream":
		window, _ := strconv.Atoi(r.URL.Query().Get("window"))
		rc := http.NewResponseController(w)
		rc.EnableFullDuplex()
		w.WriteHeader(http.StatusOK)
		rc.Flush()
		enc := json.NewEncoder(w)
		tok := r.URL.Query().Get("session")
		if tok == "" {
			tok = "mock"
		}
		enc.Encode(map[string]any{"session": map[string]any{"token": tok, "seq": 0}})
		rc.Flush()
		sc := bufio.NewScanner(r.Body)
		n, inWindow := 0, 0
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			d.lat.Observe(0.0001) // pretend each event took 100µs
			d.stages.With("queue_wait").Observe(0.00001)
			d.stages.With("apply").Observe(0.0001)
			n++
			inWindow++
			if inWindow == window {
				enc.Encode(map[string]any{"ack": map[string]int{"seq": n, "applied": inWindow}})
				rc.Flush()
				inWindow = 0
			}
		}
		if inWindow > 0 {
			enc.Encode(map[string]any{"ack": map[string]int{"seq": n, "applied": inWindow}})
		}
		d.events.Store(int64(n))
		enc.Encode(map[string]any{"done": map[string]any{
			"events": n, "redecisions": 2 * n, "moves": n / 3,
			"total_load": 1.5, "max_load": 0.25,
		}})
	case "/metrics":
		d.reg.WriteProm(w)
	default:
		http.NotFound(w, r)
	}
}

// TestLoadgenEndToEnd runs the whole client path — scenario load,
// trace generation, paced stream, metrics diff — against the mock
// daemon and checks the report it prints.
func TestLoadgenEndToEnd(t *testing.T) {
	d := newMockDaemon()
	ts := httptest.NewServer(d)
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-addr", ts.URL, "-events", "200", "-window", "32",
		"-aps", "10", "-users", "40", "-sessions", "3", "-active", "25",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, stdout.String())
	}
	if rep.Events != 200 || rep.Applied != 200 {
		t.Errorf("report events/applied = %d/%d, want 200/200", rep.Events, rep.Applied)
	}
	if got := d.events.Load(); got != 200 {
		t.Errorf("daemon saw %d events, want 200", got)
	}
	if rep.Redecisions != 400 {
		t.Errorf("redecisions = %d, want done-frame value 400", rep.Redecisions)
	}
	if rep.AchievedEPS <= 0 || rep.ElapsedSec <= 0 {
		t.Errorf("throughput not measured: %+v", rep)
	}
	if rep.DaemonRestarted {
		t.Error("daemon_restarted set against a daemon that never restarted")
	}
	// All mock observations sit in the 100µs bucket; both quantiles
	// must land inside its bounds (6.4e-05, 0.000256].
	if rep.P50Sec <= 6.4e-05 || rep.P50Sec > 0.000256 || rep.P99Sec <= rep.P50Sec-1e-12 {
		t.Errorf("latency quantiles off: p50=%v p99=%v", rep.P50Sec, rep.P99Sec)
	}
	if d.scenario.Load() != 1 {
		t.Errorf("scenario loaded %d times, want 1", d.scenario.Load())
	}
	// The per-stage breakdown: exposition order, diffed counts, and
	// quantiles landing in the right buckets (queue_wait at 10µs,
	// apply at 100µs; the mock never touches reduce, so it is
	// dropped).
	if len(rep.Stages) != 2 {
		t.Fatalf("stage breakdown = %+v, want queue_wait and apply rows", rep.Stages)
	}
	qw, ap := rep.Stages[0], rep.Stages[1]
	if qw.Stage != "queue_wait" || ap.Stage != "apply" {
		t.Fatalf("stage order = [%s %s], want exposition order [queue_wait apply]", qw.Stage, ap.Stage)
	}
	if qw.Count != 200 || ap.Count != 200 {
		t.Errorf("stage counts = %d/%d, want 200/200", qw.Count, ap.Count)
	}
	if qw.P50Sec <= 0 || qw.P50Sec >= ap.P50Sec {
		t.Errorf("queue_wait p50 %v should be positive and below apply p50 %v", qw.P50Sec, ap.P50Sec)
	}
	if ap.P50Sec <= 6.4e-05 || ap.P50Sec > 0.000256 {
		t.Errorf("apply p50 %v outside its 100µs bucket", ap.P50Sec)
	}
	if !strings.Contains(stderr.String(), "per-stage latency") || !strings.Contains(stderr.String(), "queue_wait") {
		t.Errorf("stderr lacks the per-stage table:\n%s", stderr.String())
	}
}

// restartedDaemon serves its first /metrics scrape from first, a
// stand-in for the daemon process before a restart, and everything
// else, later scrapes included, from the mock: the process after it.
type restartedDaemon struct {
	*mockDaemon
	first   *obs.Registry
	scrapes atomic.Int64
}

func (d *restartedDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/metrics" && d.scrapes.Add(1) == 1 {
		d.first.WriteProm(w)
		return
	}
	d.mockDaemon.ServeHTTP(w, r)
}

// TestLoadgenDaemonRestart runs loadgen against a daemon whose scrape
// after the run comes from a new process. The before/after diff would
// then cover only the last process (or wrap where a count went
// backwards), so the report must leave the daemon-side p50/p99 and
// stages out, set daemon_restarted and say so on stderr. Each case
// shows the reset one way: a short uptime with counts that still grew,
// and counts that went backwards beside an uptime that looks fine.
func TestLoadgenDaemonRestart(t *testing.T) {
	for _, tc := range []struct {
		name          string
		uptimeBefore  float64
		samplesBefore int
		uptimeAfter   func() float64 // nil = the mock's real uptime
	}{
		{"uptime", 1000, 0, func() float64 { return 0 }},
		{"counts", 0, 300, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := newMockDaemon()
			prev.uptime = func() float64 { return tc.uptimeBefore }
			for range tc.samplesBefore {
				prev.lat.Observe(0.0001)
				prev.stages.With("apply").Observe(0.0001)
			}
			d := &restartedDaemon{mockDaemon: newMockDaemon(), first: prev.reg}
			if tc.uptimeAfter != nil {
				d.uptime = tc.uptimeAfter
			}
			ts := httptest.NewServer(d)
			defer ts.Close()

			var stdout, stderr bytes.Buffer
			if err := run([]string{"-addr", ts.URL, "-events", "200", "-window", "32"}, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
			}
			var rep report
			if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
				t.Fatalf("report not JSON: %v\n%s", err, stdout.String())
			}
			if !rep.DaemonRestarted || rep.P50Sec != 0 || rep.P99Sec != 0 || len(rep.Stages) != 0 {
				t.Errorf("report = %+v, want daemon_restarted and no daemon-side latency", rep)
			}
			if !strings.Contains(stdout.String(), `"daemon_restarted": true`) {
				t.Errorf("report JSON lacks daemon_restarted:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), "daemon restarted") {
				t.Errorf("stderr does not say the daemon restarted:\n%s", stderr.String())
			}
			if rep.Applied != 200 {
				t.Errorf("applied = %d, want 200", rep.Applied)
			}
		})
	}
}

// TestLoadgenFaultMerge checks -mtbf layers ap_down/ap_up events into
// the stream (the daemon sees more than -events lines).
func TestLoadgenFaultMerge(t *testing.T) {
	d := newMockDaemon()
	ts := httptest.NewServer(d)
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-addr", ts.URL, "-events", "300", "-aps", "10", "-users", "40",
		"-sessions", "3", "-active", "25", "-mtbf", "2", "-mttr", "1",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	if got := d.events.Load(); got <= 300 {
		t.Errorf("daemon saw %d events, want > 300 (faults merged in)", got)
	}
	if !strings.Contains(stderr.String(), "fault actions") {
		t.Errorf("stderr %q does not report the fault merge", stderr.String())
	}
}

// flakyDaemon is a session-aware mock that kills the first dropConns
// stream connections mid-flight: each doomed connection acks one
// window, silently applies one more (durable but never acked), then
// aborts the connection. The client must reconnect, resume from its
// last ack, and let the server-side skip absorb the unacked window —
// exactly-once means every event line is applied exactly once in
// total.
type flakyDaemon struct {
	dropConns int
	mu        sync.Mutex
	durable   int // session-global applied seq
	applied   int // total lines applied (double-applies would inflate this)
	conns     int
}

func (d *flakyDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/scenario":
		io.WriteString(w, `{"aps":10,"users":40,"active_users":25,"shards":1}`)
	case "/metrics":
		// Empty exposition: loadgen tolerates absent families.
	case "/v1/events/stream":
		window, _ := strconv.Atoi(r.URL.Query().Get("window"))
		resume, _ := strconv.Atoi(r.URL.Query().Get("resume"))
		tok := r.URL.Query().Get("session")
		if tok == "" {
			tok = "flaky"
		}
		d.mu.Lock()
		d.conns++
		conn := d.conns
		durable := d.durable
		d.mu.Unlock()

		rc := http.NewResponseController(w)
		rc.EnableFullDuplex()
		w.WriteHeader(http.StatusOK)
		rc.Flush()
		enc := json.NewEncoder(w)
		skip := durable - resume
		enc.Encode(map[string]any{"session": map[string]any{
			"token": tok, "seq": durable, "skipped": skip,
		}})
		rc.Flush()

		sc := bufio.NewScanner(r.Body)
		inWindow, acked, connApplied := 0, 0, 0
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			if skip > 0 {
				skip--
				continue
			}
			d.mu.Lock()
			d.durable++
			d.applied++
			durable = d.durable
			d.mu.Unlock()
			inWindow++
			connApplied++
			if inWindow == window {
				inWindow = 0
				if conn <= d.dropConns && acked == 1 {
					// Window applied and durable, ack never sent: the
					// client's resume offset lands one window behind.
					panic(http.ErrAbortHandler)
				}
				enc.Encode(map[string]any{"ack": map[string]int{"seq": durable, "applied": window}})
				rc.Flush()
				acked++
			}
		}
		if inWindow > 0 {
			enc.Encode(map[string]any{"ack": map[string]int{"seq": durable, "applied": inWindow}})
		}
		enc.Encode(map[string]any{"done": map[string]any{"events": connApplied}})
	default:
		http.NotFound(w, r)
	}
}

// TestLoadgenReconnectResume drops the stream twice mid-run — each
// time with a durable-but-unacked window outstanding — and checks the
// client reconnects with backoff, resumes from its last ack, and the
// daemon applies every event exactly once.
func TestLoadgenReconnectResume(t *testing.T) {
	d := &flakyDaemon{dropConns: 2}
	ts := httptest.NewServer(d)
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-addr", ts.URL, "-events", "200", "-window", "16",
		"-aps", "10", "-users", "40", "-sessions", "3", "-active", "25",
		"-session", "cli", "-max-reconnects", "5",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, stdout.String())
	}
	if rep.Reconnects != 2 {
		t.Errorf("reconnects = %d, want 2", rep.Reconnects)
	}
	if rep.Applied != 200 || d.applied != 200 {
		t.Errorf("applied = client %d / daemon %d, want 200/200 (exactly once)", rep.Applied, d.applied)
	}
	// Each dropped connection left one 16-event window durable but
	// unacked; the daemon skipped it on resume.
	if rep.ResumeGap != 32 {
		t.Errorf("resume gap = %d, want 32", rep.ResumeGap)
	}
	if rep.Session != "cli" {
		t.Errorf("session = %q, want pinned token \"cli\"", rep.Session)
	}
	if d.conns != 3 {
		t.Errorf("daemon saw %d connections, want 3", d.conns)
	}
	if !strings.Contains(stderr.String(), "reconnect 1/5") || !strings.Contains(stderr.String(), "reconnect 2/5") {
		t.Errorf("stderr lacks reconnect progress lines:\n%s", stderr.String())
	}
}

// TestLoadgenReconnectGivesUp pins the -max-reconnects cap: a daemon
// that dies on every connection exhausts the budget and surfaces the
// last failure.
func TestLoadgenReconnectGivesUp(t *testing.T) {
	d := &flakyDaemon{dropConns: 1 << 30}
	ts := httptest.NewServer(d)
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-addr", ts.URL, "-events", "200", "-window", "16",
		"-aps", "10", "-users", "40", "-sessions", "3", "-active", "25",
		"-session", "cli", "-max-reconnects", "2",
	}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "after 2 reconnects") {
		t.Fatalf("err = %v, want give-up after 2 reconnects", err)
	}
}

// TestLoadgenStreamError surfaces a daemon error frame as a run error.
func TestLoadgenStreamError(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/scenario", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"aps":10,"users":40,"active_users":25,"shards":1}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/v1/events/stream", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"event":7,"error":"event 7: engine: invalid \"join\" event (7 applied)"}`+"\n")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	err := run([]string{"-addr", ts.URL, "-events", "20", "-aps", "10", "-users", "40", "-active", "25"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "event 7") {
		t.Fatalf("err = %v, want daemon rejection at event 7", err)
	}
}

// TestLoadgenStrayArguments: flag parsing stops at the first
// positional argument, so every flag after it would be dropped
// silently; the run is refused instead, as a usage error, before it
// contacts the daemon.
func TestLoadgenStrayArguments(t *testing.T) {
	d := newMockDaemon()
	ts := httptest.NewServer(d)
	defer ts.Close()
	for _, args := range [][]string{
		{"extra"},
		{"-addr", ts.URL, "extra", "-events", "5"},
		{"-addr", ts.URL, "-events", "5", "extra", "-rate", "bogus"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), `"extra"`) {
			t.Errorf("%q: err = %v, want one naming \"extra\"", args, err)
		}
		if code := exitCode(err); code != 2 {
			t.Errorf("%q: exit code %d, want 2", args, code)
		}
	}
	if n := d.scenario.Load(); n != 0 {
		t.Errorf("daemon contacted %d times", n)
	}
	if exitCode(run([]string{"-bogus"}, io.Discard, io.Discard)) != 2 {
		t.Error("an unknown flag is not a usage error")
	}
	if exitCode(nil) != 0 || exitCode(io.EOF) != 1 {
		t.Error("exitCode maps success or failure wrong")
	}
}
