package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"wlanmcast/internal/stream"
)

// ndjsonMoves renders n valid move events (users 0..29 are active in
// the loadScenario fixture) as an NDJSON request body.
func ndjsonMoves(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"kind":"move","user":%d,"pos":{"x":%d,"y":%d}}`+"\n",
			i%30, 50+(i*37)%1100, 50+(i*53)%900)
	}
	return b.String()
}

// postStream opens one streaming request and returns the decoded
// response frames plus the HTTP status.
func postStream(t *testing.T, url, body string) (int, []stream.Frame) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, []stream.Frame{{Error: string(raw)}}
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q, want application/x-ndjson", ct)
	}
	frames := readFrames(t, resp.Body)
	// Every stream opens with a session frame; strip it here so the
	// callers assert on the protocol frames that follow (the resume
	// tests inspect session frames directly).
	if len(frames) == 0 || frames[0].Session == nil {
		t.Fatalf("stream did not open with a session frame: %+v", frames)
	}
	return resp.StatusCode, frames[1:]
}

func readFrames(t testing.TB, r io.Reader) []stream.Frame {
	t.Helper()
	var frames []stream.Frame
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var f stream.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestServeStreamHappyPath pumps a windowed NDJSON stream through the
// daemon and checks the ack/done protocol end to end: every window
// acked with a running seq, totals in the final frame, and the
// assocd_stream_* counters agreeing with what was sent.
func TestServeStreamHappyPath(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)

	const n, window = 70, 16
	code, frames := postStream(t, ts.URL+"/v1/events/stream?window=16", ndjsonMoves(n))
	if code != http.StatusOK {
		t.Fatalf("stream = %d: %+v", code, frames)
	}
	wantAcks := (n + window - 1) / window // 5 windows: 16*4 + 6
	if len(frames) != wantAcks+1 {
		t.Fatalf("got %d frames, want %d acks + done: %+v", len(frames), wantAcks, frames)
	}
	seq := 0
	for i, f := range frames[:wantAcks] {
		if f.Ack == nil {
			t.Fatalf("frame %d is not an ack: %+v", i, f)
		}
		seq += f.Ack.Applied
		if f.Ack.Seq != seq {
			t.Errorf("ack %d seq = %d, want running total %d", i, f.Ack.Seq, seq)
		}
	}
	if seq != n {
		t.Errorf("acks cover %d events, want %d", seq, n)
	}
	done := frames[wantAcks]
	if done.Done == nil {
		t.Fatalf("last frame is not done: %+v", done)
	}
	if done.Done.Events != n {
		t.Errorf("done.events = %d, want %d", done.Done.Events, n)
	}
	if done.Done.TotalLoad <= 0 || done.Done.MaxLoad <= 0 {
		t.Errorf("done frame lacks loads: %+v", done.Done)
	}

	text := getText(t, ts.URL+"/metrics")
	if got := metricValue(t, text, "assocd_stream_events_total"); got != n {
		t.Errorf("assocd_stream_events_total = %v, want %d", got, n)
	}
	if got := metricValue(t, text, "assocd_stream_windows_total"); got != float64(wantAcks) {
		t.Errorf("assocd_stream_windows_total = %v, want %d", got, wantAcks)
	}
	if got := metricValue(t, text, "assocd_stream_active"); got != 0 {
		t.Errorf("assocd_stream_active = %v after stream end, want 0", got)
	}
}

// TestServeStreamRejection checks that an invalid event mid-stream
// produces an in-band error frame carrying the /v1/events wire shape
// with a stream-global index, after the valid prefix was applied and
// acked.
func TestServeStreamRejection(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)

	// 6 valid moves, then a join for an already-active user at global
	// index 6, then trailing events that must never apply.
	body := ndjsonMoves(6) +
		`{"kind":"join","user":0,"session":1,"pos":{"x":10,"y":10}}` + "\n" +
		ndjsonMoves(3)
	code, frames := postStream(t, ts.URL+"/v1/events/stream?window=4", body)
	if code != http.StatusOK {
		t.Fatalf("stream = %d", code)
	}
	// Window 1 ([0..3]) acks; window 2 ([4..7]) holds the invalid event
	// at offset 2 → error frame terminates the stream.
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want ack + error: %+v", len(frames), frames)
	}
	if frames[0].Ack == nil || frames[0].Ack.Seq != 4 {
		t.Fatalf("first frame = %+v, want ack seq=4", frames[0])
	}
	errf := frames[1]
	if errf.Error == "" || errf.Event != 6 {
		t.Fatalf("second frame = %+v, want error at event 6", errf)
	}
	if !strings.Contains(errf.Error, "event 6:") || !strings.Contains(errf.Error, "(2 applied)") {
		t.Errorf("error frame %q lacks global index / applied prefix", errf.Error)
	}
	if !strings.Contains(errf.Error, "already active") {
		t.Errorf("error frame %q does not carry the engine rejection", errf.Error)
	}
	text := getText(t, ts.URL+"/metrics")
	if got := metricValue(t, text, "assocd_stream_errors_total"); got != 1 {
		t.Errorf("assocd_stream_errors_total = %v, want 1", got)
	}
}

// TestServeStreamDecodeError: a malformed line terminates the stream
// with a decode error frame instead of a half-applied mystery.
func TestServeStreamDecodeError(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)

	body := ndjsonMoves(2) + "{not json}\n" + ndjsonMoves(2)
	code, frames := postStream(t, ts.URL+"/v1/events/stream?window=8", body)
	if code != http.StatusOK {
		t.Fatalf("stream = %d", code)
	}
	if len(frames) != 1 || frames[0].Error == "" {
		t.Fatalf("got %+v, want a single decode error frame", frames)
	}
	if frames[0].Event != 2 || !strings.Contains(frames[0].Error, "decode") {
		t.Errorf("error frame = %+v, want decode error at event 2", frames[0])
	}
}

// TestServeStreamBusy holds one stream open and checks a second gets
// 429 with Retry-After — overload is explicit, not queued.
func TestServeStreamBusy(t *testing.T) {
	ts := testServer(t)
	loadScenario(t, ts)

	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/events/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	// Do returns once response headers arrive, which the handler sends
	// only after claiming the single-flight slot.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	resp2, err := http.Post(ts.URL+"/v1/events/stream", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream = %d, want 429: %s", resp2.StatusCode, raw)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("429 response lacks Retry-After")
	}

	// Finish the first stream; the slot frees and a new stream works.
	io.WriteString(pw, ndjsonMoves(1))
	pw.Close()
	frames := readFrames(t, resp.Body)
	if len(frames) == 0 || frames[len(frames)-1].Done == nil {
		t.Fatalf("held stream frames = %+v, want done", frames)
	}
	code, frames := postStream(t, ts.URL+"/v1/events/stream", ndjsonMoves(1))
	if code != http.StatusOK || frames[len(frames)-1].Done == nil {
		t.Fatalf("stream after release = %d %+v, want ok+done", code, frames)
	}
	text := getText(t, ts.URL+"/metrics")
	if got := metricValue(t, text, "assocd_stream_busy_total"); got != 1 {
		t.Errorf("assocd_stream_busy_total = %v, want 1", got)
	}
}

// TestServeStreamGuards covers the request-shape errors: no scenario,
// wrong method, bad window.
func TestServeStreamGuards(t *testing.T) {
	ts := testServer(t)

	resp, err := http.Post(ts.URL+"/v1/events/stream", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stream without scenario = %d, want 409", resp.StatusCode)
	}

	loadScenario(t, ts)
	code, raw := doJSON(t, "GET", ts.URL+"/v1/events/stream", nil, nil)
	if code != http.StatusMethodNotAllowed {
		t.Errorf("GET stream = %d, want 405: %s", code, raw)
	}
	resp, err = http.Post(ts.URL+"/v1/events/stream?window=zero", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad window = %d, want 400", resp.StatusCode)
	}

	// An empty body is a degenerate but legal stream: done with zeros.
	code, frames := postStream(t, ts.URL+"/v1/events/stream", "\n\n")
	if code != http.StatusOK || len(frames) != 1 || frames[0].Done == nil || frames[0].Done.Events != 0 {
		t.Errorf("empty stream = %d %+v, want done{events:0}", code, frames)
	}
}

// TestServeStreamMatchesBatch replays the same seeded trace through
// the streaming endpoint and the batch endpoint on two identically
// loaded daemons and requires identical association snapshots — the
// wire protocol must not change what the engine computes.
func TestServeStreamMatchesBatch(t *testing.T) {
	tsA, tsB := testServer(t), testServer(t)
	loadScenario(t, tsA)
	loadScenario(t, tsB)

	var events []map[string]any
	for i := 0; i < 60; i++ {
		switch i % 4 {
		case 0:
			events = append(events, map[string]any{
				"kind": "move", "user": i % 30,
				"pos": map[string]float64{"x": float64(60 + i*17%1000), "y": float64(40 + i*29%900)},
			})
		case 1:
			events = append(events, map[string]any{"kind": "demand", "user": i % 30, "session": i % 3})
		case 2:
			events = append(events, map[string]any{
				"kind": "join", "user": 30 + i%20, "session": i % 3,
				"pos": map[string]float64{"x": float64(i * 13 % 1100), "y": float64(i * 7 % 950)},
			})
		default:
			events = append(events, map[string]any{"kind": "leave", "user": 30 + (i-1)%20})
		}
	}
	var nd strings.Builder
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		nd.Write(b)
		nd.WriteByte('\n')
	}

	code, frames := postStream(t, tsA.URL+"/v1/events/stream?window=7", nd.String())
	if code != http.StatusOK || frames[len(frames)-1].Done == nil {
		t.Fatalf("stream replay = %d %+v", code, frames)
	}
	var ev eventsResponse
	code, raw := doJSON(t, "POST", tsB.URL+"/v1/events", events, &ev)
	if code != http.StatusOK {
		t.Fatalf("batch replay = %d: %s", code, raw)
	}

	assocA := getText(t, tsA.URL+"/v1/assoc")
	assocB := getText(t, tsB.URL+"/v1/assoc")
	if assocA != assocB {
		t.Errorf("stream and batch replays diverge:\nstream: %s\nbatch:  %s", assocA, assocB)
	}
	done := frames[len(frames)-1].Done
	if done.Events != ev.Applied || done.Redecisions != ev.Redecisions || done.Moves != ev.Moves {
		t.Errorf("done totals %+v != batch response %+v", done, ev)
	}
}
