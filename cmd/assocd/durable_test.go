package main

// In-process durability tests: recovery edge cases (empty dir,
// journal-only, snapshot-only, graceful-shutdown zero-replay) and the
// exactly-once resume contract. The subprocess SIGKILL differential
// harness lives in crash_test.go; these tests pin the same machinery
// at the unit level where failures are cheap to localize.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"wlanmcast/internal/wal"
)

// durableServer builds a daemon over dir with aggressive-but-settable
// snapshot triggers. snapEvents <= 0 means "effectively never" (only
// explicit finalize snapshots).
func durableServer(t *testing.T, dir string, snapEvents int) *server {
	t.Helper()
	s, err := bootDurable(dir, snapEvents, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bootDurable is durableServer returning its boot error, with the
// journal rotating at segmentBytes (0 = the default).
func bootDurable(dir string, snapEvents int, segmentBytes int64) (*server, error) {
	s := newServer()
	s.errlog = io.Discard
	if snapEvents <= 0 {
		snapEvents = 1 << 30
	}
	opt := serveOptions{
		dataDir:      dir,
		fsync:        "off", // tests exercise logic, not the disk
		snapEvents:   snapEvents,
		snapInterval: time.Hour,
		segmentBytes: segmentBytes,
	}
	return s, s.enableDurability(opt, io.Discard)
}

// checkpoint cuts a snapshot by hand.
func checkpoint(t *testing.T, s *server) {
	t.Helper()
	s.mu.Lock()
	err := s.writeSnapshotLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// dataFiles lists dir's files matching pattern, by base name.
func dataFiles(t *testing.T, dir, pattern string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return paths
}

// scenarioFile is the base name of the scenario file for seq.
func scenarioFile(seq uint64) string { return fmt.Sprintf("scenario-%016d.scn", seq) }

// flipLastByte damages a file so its CRC no longer matches.
func flipLastByte(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyDir copies a flat data dir into a fresh one.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// closeLog simulates a crash boundary that still reaches the page
// cache: flush the journal and drop the handle without snapshotting.
func closeLog(t *testing.T, s *server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.dur.log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.dur.log.Close(); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, s *server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

func mustPost(t *testing.T, s *server, path, body string) {
	t.Helper()
	if rec := postJSON(t, s, path, body); rec.Code != 200 {
		t.Fatalf("POST %s = %d: %s", path, rec.Code, rec.Body)
	}
}

const durableScenario = `{"aps":10,"users":30,"sessions":2,"seed":11,"active_users":20,"shards":2}`

// driveChurn pushes a deterministic mixed batch load through /v1/events.
func driveChurn(t *testing.T, s *server, batches int) {
	t.Helper()
	for b := 0; b < batches; b++ {
		var lines []string
		for i := 0; i < 10; i++ {
			k := b*10 + i
			lines = append(lines, fmt.Sprintf(`{"kind":"move","user":%d,"pos":{"x":%d,"y":%d}}`,
				k%20, 40+(k*37)%1100, 40+(k*53)%900))
		}
		mustPost(t, s, "/v1/events", "["+strings.Join(lines, ",")+"]")
	}
}

// stateOf captures the client-visible deterministic state.
func stateOf(s *server) (assoc, loads string) {
	return recordGet(s, "/v1/assoc"), recordGet(s, "/v1/loads")
}

// TestDurableEmptyDir boots from a fresh directory: no snapshot, no
// journal, no engine — and the daemon works normally afterwards.
func TestDurableEmptyDir(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 0)
	if rec := postJSON(t, s, "/v1/events", `{"kind":"leave","user":0}`); rec.Code != http.StatusConflict {
		t.Fatalf("events before scenario = %d, want 409", rec.Code)
	}
	mustPost(t, s, "/v1/scenario", durableScenario)
	driveChurn(t, s, 2)
	closeLog(t, s)
}

// TestDurableJournalNoSnapshot recovers purely from the journal: the
// daemon is killed before any snapshot trigger fires.
func TestDurableJournalNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 0)
	mustPost(t, s, "/v1/scenario", durableScenario)
	driveChurn(t, s, 5)
	wantAssoc, wantLoads := stateOf(s)
	closeLog(t, s)

	r := durableServer(t, dir, 0)
	defer closeLog(t, r)
	gotAssoc, gotLoads := stateOf(r)
	if gotAssoc != wantAssoc {
		t.Fatalf("recovered assoc differs:\nwant %s\ngot  %s", wantAssoc, gotAssoc)
	}
	if gotLoads != wantLoads {
		t.Fatalf("recovered loads differ:\nwant %s\ngot  %s", wantLoads, gotLoads)
	}
	if got := metricValue(t, recordGet(r, "/metrics"), "assocd_wal_replay_records_total"); got != 6 {
		t.Fatalf("replayed %v records, want 6 (scenario + 5 batches)", got)
	}
}

// TestDurableSnapshotNoJournal recovers from a snapshot alone: after
// checkpointing, every journal segment is deleted (the pruner's
// endgame, forced by hand), and boot must come up from the snapshot
// with zero replay.
func TestDurableSnapshotNoJournal(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 0)
	mustPost(t, s, "/v1/scenario", durableScenario)
	driveChurn(t, s, 4)
	wantAssoc, wantLoads := stateOf(s)
	s.mu.Lock()
	if err := s.writeSnapshotLocked(); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	s.mu.Unlock()
	closeLog(t, s)
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}

	r := durableServer(t, dir, 0)
	defer closeLog(t, r)
	gotAssoc, gotLoads := stateOf(r)
	if gotAssoc != wantAssoc || gotLoads != wantLoads {
		t.Fatalf("snapshot-only recovery diverged")
	}
	text := recordGet(r, "/metrics")
	if got := metricValue(t, text, "assocd_wal_replay_records_total"); got != 0 {
		t.Fatalf("replayed %v records from a snapshot-only dir, want 0", got)
	}
}

// TestDurableSnapshotNewerThanTail is the fsync=off / interval hazard:
// a snapshot can be durable while the journal records it covers were
// lost with the page cache. Recovery must come up at the snapshot and
// keep journaling at seqs after it.
func TestDurableSnapshotNewerThanTail(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 0)
	mustPost(t, s, "/v1/scenario", durableScenario)
	driveChurn(t, s, 3)
	s.mu.Lock()
	if err := s.writeSnapshotLocked(); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	s.mu.Unlock()
	wantAssoc, _ := stateOf(s)
	closeLog(t, s)
	// Drop ALL journal bytes but keep the snapshot: the snapshot seq
	// (4) is now ahead of the (empty) tail.
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	for _, seg := range segs {
		if err := os.Truncate(seg, 0); err != nil {
			t.Fatal(err)
		}
	}

	r := durableServer(t, dir, 0)
	defer closeLog(t, r)
	if gotAssoc, _ := stateOf(r); gotAssoc != wantAssoc {
		t.Fatalf("recovery with truncated tail diverged")
	}
	// New writes must land after the snapshot floor, not collide with
	// the seqs the snapshot already covers.
	driveChurn(t, r, 1)
	r.mu.Lock()
	last := r.dur.log.LastSeq()
	floor := r.dur.lastSnapSeq
	r.mu.Unlock()
	if last <= floor {
		t.Fatalf("post-recovery append seq %d not past snapshot floor %d", last, floor)
	}
}

// TestDurableFinalizeZeroReplay pins the graceful-shutdown contract:
// finalize checkpoints the journal tail, so the next boot restores the
// snapshot and replays nothing.
func TestDurableFinalizeZeroReplay(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 0)
	mustPost(t, s, "/v1/scenario", durableScenario)
	driveChurn(t, s, 5)
	wantAssoc, wantLoads := stateOf(s)
	s.mu.Lock()
	s.finalizeLocked(io.Discard)
	s.mu.Unlock()

	r := durableServer(t, dir, 0)
	defer closeLog(t, r)
	gotAssoc, gotLoads := stateOf(r)
	if gotAssoc != wantAssoc || gotLoads != wantLoads {
		t.Fatalf("post-finalize recovery diverged")
	}
	text := recordGet(r, "/metrics")
	if got := metricValue(t, text, "assocd_wal_replay_records_total"); got != 0 {
		t.Fatalf("replayed %v records after graceful shutdown, want 0", got)
	}
	if got := metricValue(t, text, "assocd_wal_snapshots_total"); got != 0 {
		// snapshots_total counts snapshots WRITTEN by this process.
		t.Fatalf("fresh boot wrote %v snapshots, want 0", got)
	}
}

// TestDurableMultihomeRecovery is the crash-safety half of ISSUE 10's
// single-AP-assumption sweep: a multi-homed daemon (snapshots
// carrying secondary-home sets, a journaled PUT /v1/multiassoc,
// AP faults in the churn) must recover byte-identically through both
// the snapshot and the journal-tail paths.
func TestDurableMultihomeRecovery(t *testing.T) {
	// 20 APs (vs driveChurn's usual 10) so coverage areas overlap
	// enough for secondary homes to exist at all.
	const mhScenario = `{"aps":20,"users":30,"sessions":2,"seed":11,"active_users":20,"shards":2,"max_homes":2}`
	dir := t.TempDir()
	// snapEvents=25 cuts a checkpoint mid-run, so recovery exercises
	// snapshot restore (Sec fields) AND journal replay (multiassoc
	// record + fault events) in one boot.
	s := durableServer(t, dir, 25)
	mustPost(t, s, "/v1/scenario", mhScenario)
	driveChurn(t, s, 2)
	mustPost(t, s, "/v1/events", `[{"kind":"ap_down","ap":3,"user":-1},{"kind":"ap_down","ap":7,"user":-1}]`)
	driveChurn(t, s, 1)
	// Round-trip the current AP-sets through PUT so a multiassoc
	// record lands in the journal tail.
	var ma struct {
		MultiAssoc json.RawMessage `json:"multi_assoc"`
	}
	if err := json.Unmarshal([]byte(recordGet(s, "/v1/multiassoc")), &ma); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("PUT", "/v1/multiassoc", bytes.NewReader(ma.MultiAssoc)))
	if rec.Code != 200 {
		t.Fatalf("PUT /v1/multiassoc = %d: %s", rec.Code, rec.Body)
	}
	mustPost(t, s, "/v1/events", `{"kind":"ap_up","ap":3,"user":-1}`)
	wantMulti := recordGet(s, "/v1/multiassoc")
	wantAssoc, wantLoads := stateOf(s)
	var summary struct {
		SecondaryHomes int `json:"secondary_homes"`
	}
	if err := json.Unmarshal([]byte(wantMulti), &summary); err != nil {
		t.Fatal(err)
	}
	if summary.SecondaryHomes == 0 {
		t.Fatalf("pre-crash state has no secondary homes; recovery check is vacuous: %s", wantMulti)
	}
	closeLog(t, s)

	r := durableServer(t, dir, 25)
	defer closeLog(t, r)
	if got := metricValue(t, recordGet(r, "/metrics"), "assocd_wal_replay_records_total"); got == 0 {
		t.Fatal("boot replayed no journal records; the tail path went untested")
	}
	gotAssoc, gotLoads := stateOf(r)
	if gotAssoc != wantAssoc {
		t.Fatalf("recovered assoc differs:\nwant %s\ngot  %s", wantAssoc, gotAssoc)
	}
	if gotLoads != wantLoads {
		t.Fatalf("recovered loads differ:\nwant %s\ngot  %s", wantLoads, gotLoads)
	}
	if gotMulti := recordGet(r, "/v1/multiassoc"); gotMulti != wantMulti {
		t.Fatalf("recovered multi-association differs:\nwant %s\ngot  %s", wantMulti, gotMulti)
	}
}

// TestDurableScenarioReplacement journals a scenario swap and the
// churn on both sides; recovery must land on the second scenario's
// state, and stream sessions must not leak across the swap. A
// checkpoint on each side of the swap pins scenario-file pruning:
// while the two retained checkpoints name both scenarios both files
// stay (so booting from the older one works), and the first file goes
// once no retained checkpoint names it.
func TestDurableScenarioReplacement(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 0)
	mustPost(t, s, "/v1/scenario", durableScenario) // seq 1
	driveChurn(t, s, 2)
	checkpoint(t, s) // snap 3 names scenario 1
	s.mu.Lock()
	s.rememberSession("tok-a", 20)
	s.mu.Unlock()
	mustPost(t, s, "/v1/scenario", `{"aps":8,"users":24,"sessions":2,"seed":5,"active_users":20}`) // seq 4
	s.mu.Lock()
	if len(s.sessions) != 0 {
		s.mu.Unlock()
		t.Fatal("scenario replacement did not clear stream sessions")
	}
	s.mu.Unlock()
	driveChurn(t, s, 2)
	checkpoint(t, s) // snap 6 names scenario 4
	if got, want := dataFiles(t, dir, "scenario-*"), []string{scenarioFile(1), scenarioFile(4)}; !slices.Equal(got, want) {
		t.Fatalf("scenario files %v, want %v: one per retained checkpoint", got, want)
	}
	driveChurn(t, s, 1)
	wantAssoc, _ := stateOf(s)
	closeLog(t, s)

	// The fallback: the newest checkpoint is damaged, so boot restores
	// the older one, from the first scenario's file, and replays the
	// swap after it.
	fallback := copyDir(t, dir)
	flipLastByte(t, filepath.Join(fallback, "snap-0000000000000006.snap"))
	for _, d := range []string{dir, fallback} {
		r := durableServer(t, d, 0)
		if gotAssoc, _ := stateOf(r); gotAssoc != wantAssoc {
			t.Fatalf("recovery across scenario replacement diverged (%s)", d)
		}
		r.mu.Lock()
		_, leaked := r.sessions["tok-a"]
		r.mu.Unlock()
		if leaked {
			t.Fatal("pre-replacement session recovered past the scenario swap")
		}
		if d == dir {
			checkpoint(t, r) // snaps 6 and 8 both name scenario 4
			if got, want := dataFiles(t, dir, "scenario-*"), []string{scenarioFile(4)}; !slices.Equal(got, want) {
				t.Fatalf("scenario files %v, want %v once no retained checkpoint names scenario 1", got, want)
			}
		}
		closeLog(t, r)
	}
}

// TestDurableFallbackAfterRotation corrupts the newest checkpoint
// after the journal rotated and was pruned: boot falls back to the
// older checkpoint and must still find every journal record after it,
// so the daemon prunes only up to the older of the two it keeps.
func TestDurableFallbackAfterRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := bootDurable(dir, 20, 1024)
	if err != nil {
		t.Fatal(err)
	}
	mustPost(t, s, "/v1/scenario", durableScenario)
	driveChurn(t, s, 7) // checkpoints at seqs 3, 5 and 7
	wantAssoc, wantLoads := stateOf(s)
	closeLog(t, s)
	snaps, segs := dataFiles(t, dir, "snap-*"), dataFiles(t, dir, "journal-*")
	if len(snaps) != 2 || len(segs) < 2 || segs[0] == "journal-0000000000000001.wal" {
		t.Fatalf("snapshots %v and segments %v: want two snapshots, a rotated journal and its first segment pruned", snaps, segs)
	}
	flipLastByte(t, filepath.Join(dir, snaps[1]))

	r, err := bootDurable(dir, 20, 1024)
	if err != nil {
		t.Fatalf("boot from the older checkpoint: %v", err)
	}
	defer closeLog(t, r)
	if gotAssoc, gotLoads := stateOf(r); gotAssoc != wantAssoc || gotLoads != wantLoads {
		t.Fatal("boot from the older checkpoint lost journal records")
	}
	if got := metricValue(t, recordGet(r, "/metrics"), "assocd_wal_replay_records_total"); got != 3 {
		t.Fatalf("replayed %v records, want the 3 after the older checkpoint", got)
	}
}

// TestDurablePruneKeepsBootCheckpoint pins which checkpoints a cut
// keeps after a boot that fell back past a damaged newest one: the
// one the daemon booted from and the new one, both readable. Pruning
// by name would keep the damaged file and delete the boot checkpoint.
func TestDurablePruneKeepsBootCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 0)
	mustPost(t, s, "/v1/scenario", durableScenario)
	driveChurn(t, s, 1)
	checkpoint(t, s)
	driveChurn(t, s, 1)
	checkpoint(t, s)
	closeLog(t, s)
	before := dataFiles(t, dir, "snap-*")
	if len(before) != 2 {
		t.Fatalf("snapshots %v, want two", before)
	}
	flipLastByte(t, filepath.Join(dir, before[1]))

	r := durableServer(t, dir, 0)
	defer closeLog(t, r)
	driveChurn(t, r, 1)
	checkpoint(t, r)
	after := dataFiles(t, dir, "snap-*")
	if len(after) != 2 || after[0] != before[0] || after[1] == before[1] {
		t.Fatalf("snapshots after the cut %v, want the boot checkpoint %s and a new one (damaged %s gone)", after, before[0], before[1])
	}
	for _, name := range after {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if payloads, n, err := wal.DecodeFrames(buf, wal.DefaultMaxRecord); err != nil || len(payloads) != 1 || n != int64(len(buf)) {
			t.Fatalf("%s: %d frames in %d of %d bytes, %v; want one whole frame", name, len(payloads), n, len(buf), err)
		}
	}
}

// TestDurableCheckpointNeedsScenarioFile pins the order of the two
// writes: no checkpoint is renamed into place until the scenario file
// it names is durable, whether the scenario came from a live call or
// from boot replay. A directory squatting on the scenario file's
// temporary name makes that write fail.
func TestDurableCheckpointNeedsScenarioFile(t *testing.T) {
	dir := t.TempDir()
	squat := filepath.Join(dir, scenarioFile(1)+".tmp")
	if err := os.MkdirAll(filepath.Join(squat, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := durableServer(t, dir, 0)
	// Live: the record is journaled, so the call is acked, but the
	// daemon fails and cuts no checkpoint.
	mustPost(t, s, "/v1/scenario", durableScenario)
	assertFailed(t, s, "scenario file")
	s.mu.Lock()
	err := s.writeSnapshotLocked()
	s.finalizeLocked(io.Discard)
	s.mu.Unlock()
	if err == nil {
		t.Fatal("checkpoint cut although its scenario file was never written")
	}
	if snaps := dataFiles(t, dir, "snap-*"); len(snaps) != 0 {
		t.Fatalf("checkpoints %v without a scenario file", snaps)
	}

	// Boot replay: the scenario comes from the journal, and boot stops
	// before serving when its file cannot be written.
	if _, err := bootDurable(dir, 0, 0); err == nil || !strings.Contains(err.Error(), scenarioFile(1)) {
		t.Fatalf("boot that cannot write the scenario file = %v, want an error naming it", err)
	}
	if err := os.RemoveAll(squat); err != nil {
		t.Fatal(err)
	}
	r := durableServer(t, dir, 0)
	defer closeLog(t, r)
	if got := dataFiles(t, dir, "scenario-*"); len(got) != 1 || got[0] != scenarioFile(1) {
		t.Fatalf("boot replay left scenario files %v, want %s", got, scenarioFile(1))
	}
	checkpoint(t, r)
	_, blob, err := r.dur.log.LatestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := decodeSnapshot(blob); err != nil || snap.Ref.Seq != 1 {
		t.Fatalf("checkpoint names %+v (%v), want scenario 1", snap.Ref, err)
	}
}

// TestDurableScenarioFileDamageFailsBoot removes, truncates or swaps
// the scenario file a checkpoint names: boot must refuse, naming it.
func TestDurableScenarioFileDamageFailsBoot(t *testing.T) {
	other := strings.Replace(durableScenario, `"seed":11`, `"seed":12`, 1)
	for _, damage := range []string{"missing", "truncated", "other scenario"} {
		t.Run(damage, func(t *testing.T) {
			dir := t.TempDir()
			s := durableServer(t, dir, 0)
			mustPost(t, s, "/v1/scenario", durableScenario)
			driveChurn(t, s, 1)
			checkpoint(t, s)
			closeLog(t, s)
			path := filepath.Join(dir, scenarioFile(1))
			var err error
			switch damage {
			case "missing":
				err = os.Remove(path)
			case "truncated":
				err = os.Truncate(path, 20)
			case "other scenario": // same length, intact frame, another CRC
				err = os.WriteFile(path, wal.EncodeFrame(nil, []byte(other)), 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bootDurable(dir, 0, 0); err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("boot over a %s scenario file = %v, want an error naming %s", damage, err, path)
			}
		})
	}
}

// TestDurableRejectedBatchReplay journals a rejected batch and checks
// replay reproduces the exact counters (the rejection is part of the
// deterministic record).
func TestDurableRejectedBatchReplay(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 0)
	mustPost(t, s, "/v1/scenario", durableScenario)
	// User 0 is active: joining it again is rejected after the valid
	// prefix applied.
	rec := postJSON(t, s, "/v1/events",
		`[{"kind":"move","user":1,"pos":{"x":50,"y":50}},{"kind":"join","user":0,"session":1,"pos":{"x":10,"y":10}}]`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("rejected batch = %d, want 400", rec.Code)
	}
	wantMetrics := engineCounter(t, s, "assocd_events_rejected_total")
	if wantMetrics == 0 {
		t.Fatal("rejection did not count")
	}
	wantAssoc, _ := stateOf(s)
	closeLog(t, s)

	r := durableServer(t, dir, 0)
	defer closeLog(t, r)
	if got := engineCounter(t, r, "assocd_events_rejected_total"); got != wantMetrics {
		t.Fatalf("replayed rejected counter = %v, want %v", got, wantMetrics)
	}
	if gotAssoc, _ := stateOf(r); gotAssoc != wantAssoc {
		t.Fatalf("recovery with a rejected batch diverged")
	}
}

// engineCounter scrapes one engine-registry counter off /metrics.
func engineCounter(t *testing.T, s *server, family string) float64 {
	t.Helper()
	return metricValue(t, recordGet(s, "/metrics"), family)
}

// TestDurableBadJournalFailsBoot checks replay verification: a journal
// whose records the daemon cannot faithfully re-apply (unknown record
// type, or an outcome that diverges from the journaled one) must
// refuse to boot instead of serving a state it cannot prove. CRC-level
// corruption is internal/wal's job; this pins the layer above it.
func TestDurableBadJournalFailsBoot(t *testing.T) {
	for name, rec := range map[string]struct {
		hdr   recHeader
		lines string
	}{
		// An unrecognized record type means the journal came from a
		// future (or corrupted) daemon.
		"unknown_type": {hdr: recHeader{T: "bogus"}},
		// A batch whose journaled outcome (rejected at index 0) does not
		// match what replay observes (the move applies cleanly).
		"outcome_diverges": {
			hdr:   recHeader{T: recBatch, N: 1, Applied: 0, Err: true},
			lines: `{"kind":"move","user":1,"pos":{"x":50,"y":50}}` + "\n",
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := durableServer(t, dir, 0)
			mustPost(t, s, "/v1/scenario", durableScenario)
			driveChurn(t, s, 1)
			// Forge the bad record straight into the journal.
			payload, err := encodeRecord(rec.hdr, []byte(rec.lines))
			if err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			_, err = s.dur.log.Append(payload)
			s.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			closeLog(t, s)

			r := newServer()
			r.errlog = io.Discard
			err = r.enableDurability(serveOptions{dataDir: dir, fsync: "off"}, io.Discard)
			if err == nil {
				t.Fatalf("boot succeeded over a journal with a %s record", name)
			}
		})
	}
}

// TestStreamResumeExactlyOnce is the resume protocol end to end over
// a real connection: stream half a trace, "crash" the client, then
// reconnect with the same session and the FULL trace from line 0. The
// daemon must skip the durable prefix, apply only the tail, and end
// in exactly the state of one uninterrupted stream.
func TestStreamResumeExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, 0)
	ts := httptest.NewServer(s)
	defer ts.Close()
	mustPost(t, s, "/v1/scenario", durableScenario)

	// Reference daemon: the same trace in one clean stream.
	ref := newServer()
	ref.errlog = io.Discard
	tsRef := httptest.NewServer(ref)
	defer tsRef.Close()
	mustPost(t, ref, "/v1/scenario", durableScenario)

	const n = 40
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf(`{"kind":"move","user":%d,"pos":{"x":%d,"y":%d}}`,
			i%20, 30+(i*41)%1100, 30+(i*59)%900))
	}
	trace := strings.Join(lines, "\n") + "\n"
	if code, frames := postStream(t, tsRef.URL+"/v1/events/stream?window=8", trace); code != 200 || frames[len(frames)-1].Done == nil {
		t.Fatalf("reference stream failed: %d %+v", code, frames)
	}

	// First connection: half the trace under session "cli".
	half := strings.Join(lines[:n/2], "\n") + "\n"
	code, frames := postStream(t, ts.URL+"/v1/events/stream?window=8&session=cli", half)
	if code != 200 || frames[len(frames)-1].Done == nil {
		t.Fatalf("first half failed: %d %+v", code, frames)
	}

	// Reconnect, resending EVERYTHING from line 0 (resume=0): the
	// first n/2 lines must be skipped, not re-applied.
	resp, err := http.Post(ts.URL+"/v1/events/stream?window=8&session=cli&resume=0", "application/x-ndjson", strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	all := readFrames(t, resp.Body)
	resp.Body.Close()
	if all[0].Session == nil {
		t.Fatalf("first frame %+v, want session", all[0])
	}
	if all[0].Session.Seq != n/2 || all[0].Session.Skipped != n/2 {
		t.Fatalf("session frame %+v, want seq=%d skipped=%d", all[0].Session, n/2, n/2)
	}
	last := all[len(all)-1]
	if last.Done == nil || last.Done.Events != n/2 {
		t.Fatalf("resumed stream ended %+v, want done{events:%d}", last, n/2)
	}
	// Acks are session-global: the final ack must read n.
	var finalAck int
	for _, f := range all {
		if f.Ack != nil {
			finalAck = f.Ack.Seq
		}
	}
	if finalAck != n {
		t.Fatalf("final ack seq = %d, want %d", finalAck, n)
	}

	wantAssoc, wantLoads := stateOf(ref)
	gotAssoc, gotLoads := stateOf(s)
	if gotAssoc != wantAssoc || gotLoads != wantLoads {
		t.Fatalf("resumed state diverged from uninterrupted reference")
	}
	text := recordGet(s, "/metrics")
	if got := metricValue(t, text, "assocd_wal_resumes_total"); got != 1 {
		t.Fatalf("assocd_wal_resumes_total = %v, want 1", got)
	}
	if got := metricValue(t, text, "assocd_wal_resume_skipped_events_total"); got != n/2 {
		t.Fatalf("assocd_wal_resume_skipped_events_total = %v, want %d", got, n/2)
	}

	// A fully-applied duplicate resend applies nothing and acks at n.
	code, frames = postStream(t, ts.URL+"/v1/events/stream?window=8&session=cli&resume=0", trace)
	if code != 200 {
		t.Fatalf("duplicate resend = %d", code)
	}
	lastF := frames[len(frames)-1]
	if lastF.Done == nil || lastF.Done.Events != 0 {
		t.Fatalf("duplicate resend ended %+v, want done{events:0}", lastF)
	}
	if gotAssoc2, _ := stateOf(s); gotAssoc2 != wantAssoc {
		t.Fatal("duplicate resend mutated state")
	}
	closeLog(t, s)
}

// TestStreamResumeBeyondDurable rejects a resume offset the daemon
// cannot honor, in-band, telling the client where to rewind to.
func TestStreamResumeBeyondDurable(t *testing.T) {
	s := newServer()
	s.errlog = io.Discard
	ts := httptest.NewServer(s)
	defer ts.Close()
	mustPost(t, s, "/v1/scenario", durableScenario)

	resp, err := http.Post(ts.URL+"/v1/events/stream?session=ghost&resume=100", "application/x-ndjson",
		strings.NewReader(`{"kind":"move","user":1,"pos":{"x":50,"y":50}}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	frames := readFrames(t, resp.Body)
	resp.Body.Close()
	if len(frames) != 2 || frames[0].Session == nil || frames[0].Session.Seq != 0 {
		t.Fatalf("frames %+v, want session{seq:0} then error", frames)
	}
	if frames[1].Error == "" || !strings.Contains(frames[1].Error, "cannot resume") {
		t.Fatalf("frame %+v, want cannot-resume error", frames[1])
	}
}

// TestStreamSessionsWorkWithoutDataDir pins that resume bookkeeping is
// independent of journaling: an in-memory daemon still dedups re-sent
// prefixes within its lifetime.
func TestStreamSessionsWorkWithoutDataDir(t *testing.T) {
	s := newServer()
	s.errlog = io.Discard
	ts := httptest.NewServer(s)
	defer ts.Close()
	mustPost(t, s, "/v1/scenario", durableScenario)

	line := `{"kind":"move","user":3,"pos":{"x":77,"y":88}}` + "\n"
	if code, frames := postStream(t, ts.URL+"/v1/events/stream?session=mem", line); code != 200 || frames[len(frames)-1].Done.Events != 1 {
		t.Fatalf("first send: %d %+v", code, frames)
	}
	code, frames := postStream(t, ts.URL+"/v1/events/stream?session=mem&resume=0", line)
	if code != 200 || frames[len(frames)-1].Done.Events != 0 {
		t.Fatalf("duplicate send applied events: %d %+v", code, frames)
	}
}

// TestSessionEviction fills the session table past its cap and checks
// deterministic eviction of the smallest offset.
func TestSessionEviction(t *testing.T) {
	s := newServer()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < maxSessions; i++ {
		s.rememberSession(fmt.Sprintf("tok-%04d", i), uint64(i+1))
	}
	s.rememberSession("overflow", 999)
	if len(s.sessions) != maxSessions {
		t.Fatalf("table holds %d sessions, want %d", len(s.sessions), maxSessions)
	}
	if _, ok := s.sessions["tok-0000"]; ok {
		t.Fatal("smallest-offset session survived eviction")
	}
	if _, ok := s.sessions["overflow"]; !ok {
		t.Fatal("new session was not admitted")
	}
	// Updating an existing session never evicts.
	s.rememberSession("overflow", 1000)
	if len(s.sessions) != maxSessions {
		t.Fatal("update changed table size")
	}
}

// TestDurableSnapshotEnvelope pins the binary snapshot envelope: a
// checkpoint holding several stream sessions restores their offsets
// on boot, and two daemons given the same history write byte-identical
// snapshot and scenario files.
func TestDurableSnapshotEnvelope(t *testing.T) {
	sessions := map[string]uint64{"tok-c": 30, "tok-a": 10, "tok-b": 20}
	history := func(dir string) []byte {
		s := durableServer(t, dir, 0)
		mustPost(t, s, "/v1/scenario", durableScenario)
		driveChurn(t, s, 3)
		s.mu.Lock()
		for _, tok := range []string{"tok-c", "tok-a", "tok-b"} {
			s.rememberSession(tok, sessions[tok])
		}
		err := s.writeSnapshotLocked()
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		closeLog(t, s)
		_, payload, err := s.dur.log.LatestSnapshot()
		if err != nil || !bytes.HasPrefix(payload, []byte(snapEnvelopeV2)) {
			t.Fatalf("snapshot payload starts %q (err %v), want the binary envelope", payload[:min(8, len(payload))], err)
		}
		var files []byte
		for _, pattern := range []string{"snap-*", "scenario-*"} {
			names := dataFiles(t, dir, pattern)
			if len(names) != 1 {
				t.Fatalf("%s files %v, want one", pattern, names)
			}
			file, err := os.ReadFile(filepath.Join(dir, names[0]))
			if err != nil {
				t.Fatal(err)
			}
			files = append(append(files, names[0]...), file...)
		}
		return files
	}
	dirA := t.TempDir()
	if !bytes.Equal(history(dirA), history(t.TempDir())) {
		t.Fatal("identical histories wrote different snapshot or scenario files")
	}

	r := durableServer(t, dirA, 0)
	defer closeLog(t, r)
	r.mu.Lock()
	got := maps.Clone(r.sessions)
	r.mu.Unlock()
	if !maps.Equal(got, sessions) {
		t.Fatalf("recovered sessions %v, want %v", got, sessions)
	}
	if n := metricValue(t, recordGet(r, "/metrics"), "assocd_wal_replay_records_total"); n != 0 {
		t.Fatalf("replayed %v records past the snapshot, want 0", n)
	}
}

// encodeSnapshotV1 writes the v1 envelope, scenario request inline,
// as earlier daemons did.
func encodeSnapshotV1(snap daemonSnap) []byte {
	buf := appendSection([]byte(snapEnvelopeV1), snap.Scenario)
	return appendSessions(appendSection(buf, snap.Engine), snap.Sessions)
}

// TestDecodeSnapshotEnvelopeRejectsDamage feeds every truncation of a
// v2 and a v1 envelope, and each with a byte appended, to
// decodeSnapshot: each must fail rather than yield a partial state.
func TestDecodeSnapshotEnvelopeRejectsDamage(t *testing.T) {
	want := daemonSnap{
		Scenario: json.RawMessage(durableScenario),
		Engine:   []byte("engine-bytes"),
		Sessions: map[string]uint64{"b": 2, "a": 1},
	}
	v2 := want
	v2.Scenario, v2.Ref = nil, scenarioRef{Seq: 300, Len: 70000, CRC: 0xdeadbeef}
	for name, c := range map[string]struct {
		want daemonSnap
		blob []byte
	}{
		"v2": {v2, encodeSnapshot(v2)},
		"v1": {want, encodeSnapshotV1(want)},
	} {
		blob := c.blob
		snap, err := decodeSnapshot(blob)
		if err != nil || string(snap.Scenario) != string(c.want.Scenario) || snap.Ref != c.want.Ref ||
			string(snap.Engine) != "engine-bytes" || !maps.Equal(snap.Sessions, map[string]uint64{"a": 1, "b": 2}) {
			t.Fatalf("%s round trip = %+v, %v", name, snap, err)
		}
		for cut := 0; cut < len(blob); cut++ {
			if _, err := decodeSnapshot(blob[:cut]); err == nil {
				t.Fatalf("accepted the %s envelope cut at %d of %d bytes", name, cut, len(blob))
			}
		}
		if _, err := decodeSnapshot(append(blob, 0)); err == nil {
			t.Fatalf("accepted a %s envelope with a trailing byte", name)
		}
	}
	// Envelopes no encoder writes: each would decode to a state that
	// re-encodes to other bytes, or names no scenario file.
	v2env := func(ref []byte, sessions ...string) []byte {
		b := appendSection(append([]byte(snapEnvelopeV2), ref...), []byte("e"))
		b = binary.AppendUvarint(b, uint64(len(sessions)))
		for _, tok := range sessions {
			b = binary.AppendUvarint(appendSection(b, []byte(tok)), 1)
		}
		return b
	}
	ref := []byte{1, 2, 3}
	for name, blob := range map[string][]byte{
		"sessions out of order": v2env(ref, "b", "a"),
		"duplicate session":     v2env(ref, "a", "a"),
		"overlong varint":       v2env([]byte{0x81, 0x00, 2, 3}),
		"scenario seq 0":        v2env([]byte{0, 2, 3}),
		"crc over 32 bits":      v2env(binary.AppendUvarint([]byte{1, 2}, 1<<32)),
	} {
		if _, err := decodeSnapshot(blob); err == nil {
			t.Errorf("accepted an envelope with a %s", name)
		}
	}
	if _, err := decodeSnapshot(v2env(ref, "a", "b")); err != nil {
		t.Fatalf("the well-formed control envelope: %v", err)
	}
}
