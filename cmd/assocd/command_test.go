package main

// Tests of the command log: the daemon fails stop after a storage or
// internal engine error, every prefix of a journal boots to the state
// its commands produce, and a data dir written by an earlier build
// still boots.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlanmcast/internal/stream"
	"wlanmcast/internal/wal"
)

var updateFixture = flag.Bool("update", false, "regenerate "+currentFixture+", the current-format data dir, and its golden state files")

// streamBody pushes an NDJSON body through /v1/events/stream in
// process and returns the response frames.
func streamBody(t *testing.T, s *server, query, body string) []stream.Frame {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/events/stream?"+query, strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("stream %s = %d: %s", query, rec.Code, rec.Body)
	}
	return readFrames(t, rec.Body)
}

// put issues an in-process PUT and returns the status.
func put(s *server, path string, body []byte) int {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("PUT", path, bytes.NewReader(body)))
	return rec.Code
}

// field extracts one top-level field of a GET response.
func field(t *testing.T, s *server, path, name string) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(recordGet(s, path)), &doc); err != nil {
		t.Fatal(err)
	}
	return doc[name]
}

// roundTrip re-installs the daemon's current association (or AP-sets)
// through PUT, so the matching record lands in the journal.
func roundTrip(t *testing.T, s *server, path, name string) {
	t.Helper()
	if code := put(s, path, field(t, s, path, name)); code != 200 {
		t.Fatalf("PUT %s = %d", path, code)
	}
}

// fixtureState is the golden view of a journal fixture.
func fixtureState(s *server) map[string]string {
	return map[string]string{
		"assoc.json":      recordGet(s, "/v1/assoc"),
		"loads.json":      recordGet(s, "/v1/loads"),
		"multiassoc.json": recordGet(s, "/v1/multiassoc"),
	}
}

// The journal fixtures are data dirs that must keep booting. Each
// holds the same history, written by the build of its day: journal-v1
// checkpoints in the JSON envelope, journal-v2 in the v1 binary
// envelope with the scenario request inline, and journal-v3 in the v2
// envelope that names its scenario file. -update rewrites only the
// current one; the older ones cannot be written any more.
const currentFixture = "testdata/journal-v3"

var journalFixtures = []string{"testdata/journal-v1", "testdata/journal-v2", currentFixture}

// writeJournalFixture builds currentFixture: a multi-homed scenario
// and every record kind (scenario, batch with one rejected, a
// generated trace batch, stream windows under a session, assoc and
// multiassoc installs), one snapshot cut partway, then a tail of every
// kind but scenario after it. The journal is closed without a final snapshot,
// so a boot restores the snapshot and replays the tail.
func writeJournalFixture(t *testing.T) {
	fixtureDir := currentFixture
	if err := os.RemoveAll(fixtureDir); err != nil {
		t.Fatal(err)
	}
	s := durableServer(t, fixtureDir, 0)
	mustPost(t, s, "/v1/scenario", `{"aps":20,"users":30,"sessions":2,"seed":11,"active_users":20,"max_homes":2}`)
	driveChurn(t, s, 1)
	streamBody(t, s, "window=3&session=fx", ndjsonMoves(7))
	roundTrip(t, s, "/v1/assoc", "assoc")
	roundTrip(t, s, "/v1/multiassoc", "multi_assoc")
	s.mu.Lock()
	err := s.writeSnapshotLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	mustPost(t, s, "/v1/events", `[{"kind":"ap_down","ap":3,"user":-1},{"kind":"move","user":4,"pos":{"x":300,"y":200}}]`)
	if rec := postJSON(t, s, "/v1/events",
		`[{"kind":"move","user":1,"pos":{"x":50,"y":50}},{"kind":"join","user":0,"session":1,"pos":{"x":10,"y":10}}]`); rec.Code != 400 {
		t.Fatalf("rejected batch = %d, want 400", rec.Code)
	}
	streamBody(t, s, "window=4&session=fx&resume=7", ndjsonMoves(10)[len(ndjsonMoves(7)):])
	roundTrip(t, s, "/v1/assoc", "assoc")
	mustPost(t, s, "/v1/events", `{"kind":"ap_up","ap":3,"user":-1}`)
	roundTrip(t, s, "/v1/multiassoc", "multi_assoc")
	driveChurn(t, s, 1)
	// The trace joins and leaves users, so it comes after every call
	// that assumes users 0..19 are active.
	mustPost(t, s, "/v1/events", traceBody(t, s, 5, 30))
	mustPost(t, s, "/v1/events", `{"kind":"ap_down","ap":5,"user":-1}`)
	for name, body := range fixtureState(s) {
		if err := os.WriteFile(filepath.Join(fixtureDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	closeLog(t, s)
}

// copyFixture copies a fixture's journal segments, snapshots and
// scenario files (not the golden files) into a fresh directory, so
// booting cannot touch the checked-in bytes.
func copyFixture(t *testing.T, fixtureDir string, withSnapshots bool) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".json") ||
			(!withSnapshots && (strings.HasSuffix(name, ".snap") || strings.HasSuffix(name, ".scn"))) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(fixtureDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestDurableJournalFixtureBoots boots each journal fixture and
// byte-compares the recovered state with the golden files written
// beside it. The record and snapshot formats are a storage contract:
// a daemon that cannot boot yesterday's data dir loses it. Each boots
// twice: from the snapshot plus the journal tail, and from the journal
// alone (snapshot and scenario files removed), which replays the
// scenario record too. -update regenerates the current fixture.
func TestDurableJournalFixtureBoots(t *testing.T) {
	if *updateFixture {
		writeJournalFixture(t)
	}
	for _, fixtureDir := range journalFixtures {
		t.Run(filepath.Base(fixtureDir), func(t *testing.T) { bootFixture(t, fixtureDir) })
	}
}

// bootFixture boots a copy of fixtureDir, checks the golden state, then
// cuts a checkpoint in the current format and boots that too, so an
// older data dir is also shown to upgrade.
func bootFixture(t *testing.T, fixtureDir string) {
	for _, withSnap := range []bool{true, false} {
		dir := copyFixture(t, fixtureDir, withSnap)
		r := durableServer(t, dir, 0)
		replayed := metricValue(t, recordGet(r, "/metrics"), "assocd_wal_replay_records_total")
		if replayed == 0 {
			t.Fatalf("snapshot=%v: boot replayed no records; the tail path went untested", withSnap)
		}
		checkState := func(r *server, when string) {
			for name, got := range fixtureState(r) {
				want, err := os.ReadFile(filepath.Join(fixtureDir, name))
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("snapshot=%v, %s: recovered %s differs:\nwant %s\ngot  %s", withSnap, when, name, want, got)
				}
			}
		}
		checkState(r, "first boot")
		checkpoint(t, r)
		closeLog(t, r)
		r = durableServer(t, dir, 0)
		checkState(r, "boot from a current-format checkpoint")
		closeLog(t, r)
	}
}

// associatedUser returns a user the current engine has on an AP.
func associatedUser(t *testing.T, s *server) int {
	t.Helper()
	var apOf []int
	if err := json.Unmarshal(field(t, s, "/v1/assoc", "assoc"), &apOf); err != nil {
		t.Fatal(err)
	}
	for u, ap := range apOf {
		if ap >= 0 {
			return u
		}
	}
	t.Fatal("no associated user")
	return -1
}

// breakEngine raises session 0's bitrate behind the engine's back past
// the range a tracker keeps exact, so that the next event passes
// validation and then fails inside the engine: under the full-recompute
// mode every event rebuilds the association on a fresh tracker, which
// refuses the network. Only a broken engine invariant produces such a
// state.
func breakEngine(s *server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng.Network().Sessions[0].Rate = 1e6
}

// assertFailed checks what a failed daemon shows: every kind of
// mutation answers 503, /healthz answers 503 naming the error, the
// read routes still answer, and assocd_failed reads 1.
func assertFailed(t *testing.T, s *server, cause string) {
	t.Helper()
	assoc, multi := field(t, s, "/v1/assoc", "assoc"), field(t, s, "/v1/multiassoc", "multi_assoc")
	move := `{"kind":"move","user":1,"pos":{"x":60,"y":70}}`
	for _, c := range []struct {
		method, path, body string
	}{
		{"POST", "/v1/scenario", durableScenario},
		{"POST", "/v1/events", move},
		{"POST", "/v1/events/stream?session=late", move + "\n"},
		{"PUT", "/v1/assoc", string(assoc)},
		{"PUT", "/v1/multiassoc", string(multi)},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s on a failed daemon = %d, want 503: %s", c.method, c.path, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), cause) {
		t.Errorf("/healthz = %d %q, want 503 naming %q", rec.Code, rec.Body, cause)
	}
	for _, path := range []string{"/v1/status", "/v1/assoc", "/v1/loads", "/metrics"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s on a failed daemon = %d, want 200: %s", path, rec.Code, rec.Body)
		}
	}
	if got := metricValue(t, recordGet(s, "/metrics"), "assocd_failed"); got != 1 {
		t.Errorf("assocd_failed = %v, want 1", got)
	}
}

// TestFailStopInternalError breaks an engine invariant and sends the
// event that trips over it, once through POST /v1/events and once
// through a stream window. The call fails (500, or an error frame),
// is not journaled because it was never acked, and fails the daemon.
func TestFailStopInternalError(t *testing.T) {
	for _, via := range []string{"events", "stream"} {
		t.Run(via, func(t *testing.T) {
			s := durableServer(t, t.TempDir(), 0)
			defer closeLog(t, s)
			mustPost(t, s, "/v1/scenario", strings.Replace(durableScenario, "{", `{"mode":"full",`, 1))
			driveChurn(t, s, 1)
			if got := metricValue(t, recordGet(s, "/metrics"), "assocd_failed"); got != 0 {
				t.Fatalf("assocd_failed = %v on a healthy daemon, want 0", got)
			}
			u := associatedUser(t, s)
			breakEngine(s)
			lastSeq := s.dur.log.LastSeq()
			leave := fmt.Sprintf(`{"kind":"leave","user":%d}`, u)
			if via == "events" {
				rec := postJSON(t, s, "/v1/events", `[{"kind":"move","user":1,"pos":{"x":50,"y":50}},`+leave+`]`)
				if rec.Code != http.StatusInternalServerError {
					t.Fatalf("internal error = %d, want 500: %s", rec.Code, rec.Body)
				}
			} else {
				frames := streamBody(t, s, "window=4&session=cli", leave+"\n")
				last := frames[len(frames)-1]
				if last.Error == "" || !strings.Contains(last.Error, "internal") {
					t.Fatalf("stream ended %+v, want an internal-error frame", last)
				}
			}
			if got := s.dur.log.LastSeq(); got != lastSeq {
				t.Fatalf("the failed call was journaled: last seq %d, want %d", got, lastSeq)
			}
			assertFailed(t, s, "internal engine error")
		})
	}
}

// TestFailStopAppendError closes the journal under a running daemon.
// The next call gets 500, nothing is acked after it, and a restart on
// the same data dir recovers exactly the acked prefix: the state of a
// reference daemon that saw only the acked calls.
func TestFailStopAppendError(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 0)
	ref := newServer()
	ref.errlog = io.Discard
	for _, d := range []*server{s, ref} {
		mustPost(t, d, "/v1/scenario", durableScenario)
		driveChurn(t, d, 3)
	}
	s.mu.Lock()
	err := s.dur.log.Close()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if rec := postJSON(t, s, "/v1/events", `{"kind":"move","user":2,"pos":{"x":300,"y":300}}`); rec.Code != http.StatusInternalServerError {
		t.Fatalf("call after the journal closed = %d, want 500: %s", rec.Code, rec.Body)
	}
	assertFailed(t, s, "closed log")

	r := durableServer(t, dir, 0)
	defer closeLog(t, r)
	wantAssoc, wantLoads := stateOf(ref)
	if gotAssoc, gotLoads := stateOf(r); gotAssoc != wantAssoc || gotLoads != wantLoads {
		t.Fatalf("restart did not recover the acked prefix:\nwant %s%s\ngot  %s%s", wantAssoc, wantLoads, gotAssoc, gotLoads)
	}
}

// TestFailStopSnapshotError makes the next snapshot fail after its
// record was appended: the call is acked, because the record is in the
// journal, but the daemon fails. A graceful shutdown then writes no
// final snapshot, yet syncs and closes the journal, so a restart
// recovers the acked call.
func TestFailStopSnapshotError(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 10)
	mustPost(t, s, "/v1/scenario", durableScenario)
	// driveChurn's batch of 10 events fires the snapshot trigger; a
	// directory where the snapshot's temporary file goes makes it fail.
	tmp := filepath.Join(dir, fmt.Sprintf("snap-%016d.snap.tmp", s.dur.log.NextSeq()))
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	driveChurn(t, s, 1)
	wantAssoc, wantLoads := stateOf(s)
	assertFailed(t, s, "snapshot")

	// With the obstacle gone, a final snapshot would succeed: none may
	// be written all the same.
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.finalizeLocked(io.Discard)
	_, err := s.dur.log.Append([]byte("x"))
	s.mu.Unlock()
	if err == nil {
		t.Fatal("journal still open after shutdown")
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*")); len(snaps) != 0 {
		t.Fatalf("failed daemon wrote snapshots %v on shutdown", snaps)
	}

	r := durableServer(t, dir, 0)
	defer closeLog(t, r)
	if gotAssoc, gotLoads := stateOf(r); gotAssoc != wantAssoc || gotLoads != wantLoads {
		t.Fatal("restart lost the acked call")
	}
}

// prefixState is everything a recovered daemon must reproduce: the
// association, AP-sets, loads, stream sessions and the engine counter
// families.
func prefixState(s *server) string {
	s.mu.Lock()
	sessions, _ := json.Marshal(s.sessions)
	s.mu.Unlock()
	var counters []string
	for _, line := range strings.Split(recordGet(s, "/metrics"), "\n") {
		for _, fam := range []string{"assocd_events_total", "assocd_events_rejected_total", "assocd_redecisions_total", "assocd_handoffs_total", "assocd_scenarios_loaded_total"} {
			if strings.HasPrefix(line, fam+"{") || strings.HasPrefix(line, fam+" ") {
				counters = append(counters, line)
			}
		}
	}
	return strings.Join([]string{recordGet(s, "/v1/assoc"), recordGet(s, "/v1/multiassoc"),
		recordGet(s, "/v1/loads"), string(sessions), strings.Join(counters, "\n")}, "\n")
}

// TestReplayEveryPrefix is the crash differential in process. It
// drives a seeded mix of every kind of mutation through the live
// handlers, then boots a copy of the journal cut at every record
// boundary, and torn partway into the next record, and compares each
// boot with a reference that exec'd the same prefix of commands
// without a data dir.
func TestReplayEveryPrefix(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 0)
	mustPost(t, s, "/v1/scenario", `{"aps":10,"users":30,"sessions":2,"seed":11,"active_users":20,"max_homes":2}`)
	if rec := postJSON(t, s, "/v1/events",
		`[{"kind":"move","user":1,"pos":{"x":50,"y":50}},{"kind":"join","user":0,"session":1,"pos":{"x":10,"y":10}}]`); rec.Code != 400 {
		t.Fatalf("rejected batch = %d, want 400", rec.Code)
	}
	rng := rand.New(rand.NewSource(7))
	moves := func(n int) []string {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = fmt.Sprintf(`{"kind":"move","user":%d,"pos":{"x":%d,"y":%d}}`, rng.Intn(30), 20+rng.Intn(1100), 20+rng.Intn(900))
		}
		return lines
	}
	for i := 0; i < 36; i++ {
		if i == 18 {
			mustPost(t, s, "/v1/scenario", `{"aps":12,"users":30,"sessions":2,"seed":5,"active_users":24,"max_homes":2}`)
		}
		code := 200
		switch rng.Intn(6) {
		case 0: // some users are inactive, so some batches are rejected
			code = postJSON(t, s, "/v1/events", "["+strings.Join(moves(1+rng.Intn(4)), ",")+"]").Code
		case 1:
			code = postJSON(t, s, "/v1/events", traceBody(t, s, int64(rng.Intn(1000)), 1+rng.Intn(10))).Code
		case 2:
			tok := fmt.Sprintf("s%d", rng.Intn(3))
			s.mu.Lock()
			off := s.sessions[tok]
			s.mu.Unlock()
			streamBody(t, s, fmt.Sprintf("window=%d&session=%s&resume=%d", 1+rng.Intn(3), tok, off),
				strings.Join(moves(1+rng.Intn(6)), "\n")+"\n")
		case 3:
			code = put(s, "/v1/assoc", field(t, s, "/v1/assoc", "assoc"))
		case 4:
			code = put(s, "/v1/multiassoc", field(t, s, "/v1/multiassoc", "multi_assoc"))
		case 5:
			code = postJSON(t, s, "/v1/events", fmt.Sprintf(`{"kind":"ap_down","ap":%d,"user":-1}`, rng.Intn(10))).Code
		}
		if code != 200 && code != 400 {
			t.Fatalf("op %d answered %d", i, code)
		}
	}
	live := prefixState(s)
	closeLog(t, s)

	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("journal has segments %v, want one", segs)
	}
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, err := wal.DecodeFrames(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int{0}
	kinds := map[string]int{}
	for _, p := range payloads {
		ends = append(ends, ends[len(ends)-1]+len(wal.EncodeFrame(nil, p)))
		hdr, _, err := decodeRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		kinds[hdr.T]++
		if hdr.Err {
			kinds["rejected"]++
		}
	}
	for _, k := range []string{recScenario, recBatch, recWindow, recAssoc, recMultiAssoc, "rejected"} {
		if kinds[k] == 0 {
			t.Fatalf("journal has no %s record: %v", k, kinds)
		}
	}

	ref := newServer()
	ref.errlog = io.Discard
	for k := 0; k <= len(payloads); k++ {
		if k > 0 {
			hdr, lines, err := decodeRecord(payloads[k-1])
			var c *command
			if err == nil {
				c, err = ref.decodeCommand(hdr, lines)
			}
			if err != nil {
				t.Fatal(err)
			}
			ref.mu.Lock()
			ref.exec(c)
			ref.mu.Unlock()
		}
		want := prefixState(ref)
		cuts := []int{ends[k]}
		if k < len(payloads) {
			cuts = append(cuts, (ends[k]+ends[k+1])/2)
		}
		for _, cut := range cuts {
			d := t.TempDir()
			if err := os.WriteFile(filepath.Join(d, filepath.Base(segs[0])), buf[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			r := durableServer(t, d, 0)
			if got := prefixState(r); got != want {
				t.Fatalf("boot of the journal cut at byte %d (%d records) differs from the reference:\nwant %s\ngot  %s", cut, k, want, got)
			}
			closeLog(t, r)
		}
	}
	if got := prefixState(ref); got != live {
		t.Fatalf("exec of the whole journal differs from the live daemon:\nwant %s\ngot  %s", live, got)
	}
}
