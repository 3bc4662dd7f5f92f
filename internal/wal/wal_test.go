package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wlanmcast/internal/obs"
)

func mustOpen(t *testing.T, dir string, opt Options) *Log {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func record(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d:%s", i, strings.Repeat("x", i%37)))
}

// collect replays everything after from into a map seq -> payload copy.
func collect(t *testing.T, l *Log, from uint64) map[uint64][]byte {
	t.Helper()
	got := map[uint64][]byte{}
	err := l.Replay(from, func(seq uint64, p []byte) error {
		got[seq] = append([]byte(nil), p...)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: SyncOff})
	const n = 200
	for i := 0; i < n; i++ {
		seq, err := l.Append(record(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append %d: seq = %d, want %d", i, seq, i+1)
		}
	}
	if l.LastSeq() != n {
		t.Fatalf("LastSeq = %d, want %d", l.LastSeq(), n)
	}
	got := collect(t, l, 0)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[uint64(i+1)], record(i)) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// Replay from an offset skips exactly the prefix.
	if got := collect(t, l, 150); len(got) != n-150 {
		t.Fatalf("Replay(150) yielded %d records, want %d", len(got), n-150)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen continues the sequence.
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if l2.NextSeq() != n+1 {
		t.Fatalf("reopened NextSeq = %d, want %d", l2.NextSeq(), n+1)
	}
	if l2.Torn() != nil {
		t.Fatalf("clean reopen reported torn tail: %+v", l2.Torn())
	}
}

func TestSegmentRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force frequent rotation.
	l := mustOpen(t, dir, Options{Policy: SyncOff, SegmentBytes: 256})
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.segs) < 3 {
		t.Fatalf("expected >= 3 segments at 256-byte rotation, got %d", len(l.segs))
	}
	got := collect(t, l, 0)
	if len(got) != n {
		t.Fatalf("replayed %d, want %d", len(got), n)
	}

	// Prune below a mid-journal sequence; replay from there still works.
	if err := l.Prune(40); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	for _, start := range l.segs {
		next := uint64(n + 1)
		for _, s := range l.segs {
			if s > start && s < next {
				next = s
			}
		}
		if next <= 41 && start != l.segs[len(l.segs)-1] {
			t.Fatalf("segment starting at %d should have been pruned", start)
		}
	}
	got = collect(t, l, 40)
	if len(got) != n-40 {
		t.Fatalf("post-prune Replay(40) yielded %d, want %d", len(got), n-40)
	}
	l.Close()
}

func TestTornTailRecovery(t *testing.T) {
	for _, cut := range []string{"header", "payload", "zeros", "garbage"} {
		t.Run(cut, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{Policy: SyncOff})
			for i := 0; i < 10; i++ {
				if _, err := l.Append(record(i)); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			path := l.segPath(1)
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, end, _ := DecodeFrames(buf, 0)
			// Find the start of the last frame to compute cut points.
			payloads, _, _ := DecodeFrames(buf, 0)
			lastStart := end - int64(frameHeader+len(payloads[len(payloads)-1]))
			switch cut {
			case "header":
				buf = buf[:lastStart+4] // half a header
			case "payload":
				buf = buf[:lastStart+frameHeader+3] // partial payload
			case "zeros":
				buf = append(buf[:lastStart], make([]byte, 64)...)
			case "garbage":
				// Corrupt the last frame's payload in place: CRC mismatch
				// at the tail is repaired like a torn tail.
				buf[lastStart+frameHeader] ^= 0xff
			}
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			l2 := mustOpen(t, dir, Options{})
			defer l2.Close()
			if l2.Torn() == nil {
				t.Fatalf("expected torn-tail repair, got none")
			}
			if l2.NextSeq() != 10 {
				t.Fatalf("NextSeq = %d, want 10 (9 surviving records)", l2.NextSeq())
			}
			got := collect(t, l2, 0)
			if len(got) != 9 {
				t.Fatalf("replayed %d records, want 9", len(got))
			}
			// The repaired log accepts appends and they land at seq 10.
			seq, err := l2.Append([]byte("after-repair"))
			if err != nil || seq != 10 {
				t.Fatalf("post-repair Append = (%d, %v), want (10, nil)", seq, err)
			}
		})
	}
}

func TestMidJournalCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: SyncOff, SegmentBytes: 256})
	for i := 0; i < 60; i++ {
		if _, err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(l.segs))
	}
	first := l.segs[0]
	l.Close()
	// Flip a payload byte in the FIRST segment: damage behind the tail.
	path := filepath.Join(dir, fmt.Sprintf("journal-%016d.wal", first))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[frameHeader+2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	var ce *CorruptError
	err = l2.Replay(0, func(uint64, []byte) error { return nil })
	if !errors.As(err, &ce) {
		t.Fatalf("Replay over mid-journal damage = %v, want *CorruptError", err)
	}
	if ce.Path != path {
		t.Fatalf("CorruptError.Path = %q, want %q", ce.Path, path)
	}
}

func TestSnapshotRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: SyncOff})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot(10, []byte("state@10")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := l.WriteSnapshot(20, []byte("state@20")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	seq, payload, err := l.LatestSnapshot()
	if err != nil || seq != 20 || string(payload) != "state@20" {
		t.Fatalf("LatestSnapshot = (%d, %q, %v), want (20, state@20, nil)", seq, payload, err)
	}
	// Damage the newest snapshot: fallback to the older one.
	snap := filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", uint64(20)))
	buf, _ := os.ReadFile(snap)
	buf[len(buf)-1] ^= 0xff
	os.WriteFile(snap, buf, 0o644)
	seq, payload, err = l.LatestSnapshot()
	if err != nil || seq != 10 || string(payload) != "state@10" {
		t.Fatalf("fallback LatestSnapshot = (%d, %q, %v), want (10, state@10, nil)", seq, payload, err)
	}
	// PruneSnapshots keeps exactly the named files: naming the
	// checkpoint recovery fell back to (and a seq with no file)
	// removes the damaged newest.
	if err := l.PruneSnapshots(10, 30); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listSeqFiles(dir, snapPrefix, snapSuffix)
	if len(seqs) != 1 || seqs[0] != 10 {
		t.Fatalf("after PruneSnapshots(10, 30): %v, want [10]", seqs)
	}
	l.Close()
}

// TestSnapshotOverCapRefused pins that a snapshot LatestSnapshot could
// not read back is refused up front: no file appears, and the earlier
// snapshot stays the latest.
func TestSnapshotOverCapRefused(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: SyncOff, MaxRecord: 1024})
	defer l.Close()
	if err := l.WriteSnapshot(5, []byte("state@5")); err != nil {
		t.Fatal(err)
	}
	err := l.WriteSnapshot(9, make([]byte, 2048))
	if err == nil || !strings.Contains(err.Error(), "exceeds cap 1024") {
		t.Fatalf("WriteSnapshot of 2048 bytes = %v, want a cap error", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "snap-*"))
	if want := filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", uint64(5))); len(files) != 1 || files[0] != want {
		t.Fatalf("snapshot files = %v, want only %s", files, want)
	}
	seq, payload, err := l.LatestSnapshot()
	if err != nil || seq != 5 || string(payload) != "state@5" {
		t.Fatalf("LatestSnapshot = (%d, %q, %v), want (5, state@5, nil)", seq, payload, err)
	}
}

func TestSnapshotNewerThanJournalTail(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: SyncOff})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot claims coverage through seq 12 — past the journal tail
	// (as after a prune or a lost journal).
	if err := l.WriteSnapshot(12, []byte("state@12")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if l2.NextSeq() != 13 {
		t.Fatalf("NextSeq = %d, want 13 (snapshot floor + 1)", l2.NextSeq())
	}
	seq, err := l2.Append([]byte("post-snapshot"))
	if err != nil || seq != 13 {
		t.Fatalf("Append = (%d, %v), want (13, nil)", seq, err)
	}
	// Replay from the snapshot seq must yield exactly the new record.
	got := collect(t, l2, 12)
	if len(got) != 1 || string(got[13]) != "post-snapshot" {
		t.Fatalf("Replay(12) = %v, want only seq 13", got)
	}
}

func TestSnapshotButNoJournal(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.WriteSnapshot(7, []byte("only-snapshot")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Remove the (empty) journal segment entirely.
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	for _, s := range segs {
		os.Remove(s)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if l2.NextSeq() != 8 {
		t.Fatalf("NextSeq = %d, want 8", l2.NextSeq())
	}
	seq, payload, err := l2.LatestSnapshot()
	if err != nil || seq != 7 || string(payload) != "only-snapshot" {
		t.Fatalf("LatestSnapshot = (%d, %q, %v)", seq, payload, err)
	}
	if got := collect(t, l2, 7); len(got) != 0 {
		t.Fatalf("Replay(7) on empty journal = %v, want none", got)
	}
}

func TestEmptyDirAndTmpCleanup(t *testing.T) {
	dir := t.TempDir()
	// A crash mid-snapshot leaves a .tmp; Open must discard it.
	os.WriteFile(filepath.Join(dir, "snap-0000000000000009.snap.tmp"), []byte("partial"), 0o644)
	l := mustOpen(t, dir, Options{})
	defer l.Close()
	if l.NextSeq() != 1 {
		t.Fatalf("NextSeq = %d, want 1", l.NextSeq())
	}
	if seq, _, err := l.LatestSnapshot(); err != nil || seq != 0 {
		t.Fatalf("LatestSnapshot on empty dir = (%d, _, %v), want (0, nil, nil)", seq, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snap-0000000000000009.snap.tmp")); !os.IsNotExist(err) {
		t.Fatalf("leftover .tmp not cleaned: %v", err)
	}
}

func TestFsyncPolicies(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }

	t.Run("always", func(t *testing.T) {
		l := mustOpen(t, t.TempDir(), Options{Policy: SyncAlways, Now: clock})
		defer l.Close()
		if _, err := l.Append([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if l.dirty {
			t.Fatal("SyncAlways left the log dirty after Append")
		}
	})
	t.Run("interval", func(t *testing.T) {
		l := mustOpen(t, t.TempDir(), Options{Policy: SyncInterval, Interval: time.Second, Now: clock})
		defer l.Close()
		if _, err := l.Append([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if !l.dirty {
			t.Fatal("SyncInterval synced before the interval elapsed")
		}
		now = now.Add(2 * time.Second)
		if _, err := l.Append([]byte("b")); err != nil {
			t.Fatal(err)
		}
		if l.dirty {
			t.Fatal("SyncInterval did not sync after the interval elapsed")
		}
	})
	t.Run("off", func(t *testing.T) {
		dir := t.TempDir()
		l := mustOpen(t, dir, Options{Policy: SyncOff, Now: clock})
		if _, err := l.Append([]byte("visible")); err != nil {
			t.Fatal(err)
		}
		// SyncOff still flushes to the OS per append: the bytes are in
		// the file even before Close (what a SIGKILL would preserve).
		buf, err := os.ReadFile(l.segPath(1))
		if err != nil {
			t.Fatal(err)
		}
		payloads, _, derr := DecodeFrames(buf, 0)
		if derr != nil || len(payloads) != 1 || string(payloads[0]) != "visible" {
			t.Fatalf("SyncOff append not visible in file: %d payloads, %v", len(payloads), derr)
		}
		l.Close()
	})
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": SyncAlways, "interval": SyncInterval, "off": SyncOff} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = (%v, %v), want %v", s, got, err, want)
		}
		if got.String() != s {
			t.Fatalf("Policy(%q).String() = %q", s, got.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
}

func TestAppendLimits(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{MaxRecord: 16})
	defer l.Close()
	if _, err := l.Append(nil); err == nil {
		t.Fatal("Append(nil) succeeded; zero-length records are reserved")
	}
	if _, err := l.Append(make([]byte, 17)); err == nil {
		t.Fatal("Append over MaxRecord succeeded")
	}
}

func TestMetricsWiring(t *testing.T) {
	reg := obs.NewRegistry()
	m := RegisterMetrics(reg)
	l := mustOpen(t, t.TempDir(), Options{Policy: SyncAlways, Metrics: m, SegmentBytes: 128})
	defer l.Close()
	for i := 0; i < 20; i++ {
		if _, err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot(20, []byte("s")); err != nil {
		t.Fatal(err)
	}
	if m.Appends.Value() != 20 {
		t.Fatalf("appends counter = %d, want 20", m.Appends.Value())
	}
	if m.Bytes.Value() == 0 {
		t.Fatal("bytes counter stayed zero")
	}
	if m.Snapshots.Value() != 1 {
		t.Fatalf("snapshots counter = %d, want 1", m.Snapshots.Value())
	}
	if got := m.FsyncSeconds.Snapshot(); got.Count == 0 {
		t.Fatal("fsync histogram recorded nothing under SyncAlways")
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	for _, fam := range []string{"assocd_wal_appends_total", "assocd_wal_bytes_total", "assocd_wal_fsync_seconds", "assocd_wal_segments", "assocd_wal_snapshots_total"} {
		if !strings.Contains(buf.String(), fam) {
			t.Fatalf("exposition missing %s", fam)
		}
	}
}

func TestDecodeFramesProperties(t *testing.T) {
	var buf []byte
	var want [][]byte
	for i := 0; i < 7; i++ {
		p := record(i)
		want = append(want, p)
		buf = EncodeFrame(buf, p)
	}
	payloads, n, err := DecodeFrames(buf, 0)
	if err != nil || n != int64(len(buf)) || len(payloads) != 7 {
		t.Fatalf("DecodeFrames = (%d payloads, %d, %v)", len(payloads), n, err)
	}
	for i := range want {
		if !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
	// Every truncation point yields a valid prefix and n <= cut.
	for cut := 0; cut <= len(buf); cut++ {
		ps, n, err := DecodeFrames(buf[:cut], 0)
		if err != nil {
			t.Fatalf("truncation at %d: %v", cut, err)
		}
		if n > int64(cut) {
			t.Fatalf("truncation at %d: n = %d > cut", cut, n)
		}
		round := []byte{}
		for _, p := range ps {
			round = EncodeFrame(round, p)
		}
		if !bytes.Equal(round, buf[:n]) {
			t.Fatalf("truncation at %d: re-encoded prefix mismatch", cut)
		}
	}
	// Oversized declared length is corrupt, not a hang or a panic.
	huge := make([]byte, frameHeader)
	huge[0] = 0xff
	huge[1] = 0xff
	huge[2] = 0xff
	huge[3] = 0x7f
	if _, _, err := DecodeFrames(huge, 1024); err == nil {
		t.Fatal("oversized frame length not reported as corrupt")
	}
}

// TestReplayRefusesGap prunes the journal up to the newest of two
// snapshots and then damages that snapshot, so a boot falls back to
// the older one: the records between the two are gone, and Replay
// from the older one must say so instead of starting at the next
// segment it finds.
func TestReplayRefusesGap(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: SyncOff, SegmentBytes: 64})
	for i := 1; i <= 12; i++ {
		if _, err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
		if i == 3 || i == 9 {
			if err := l.WriteSnapshot(uint64(i), []byte(fmt.Sprintf("state@%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Prune(9); err != nil {
		t.Fatal(err)
	}
	l.Close()
	snap := filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", uint64(9)))
	buf, _ := os.ReadFile(snap)
	buf[len(buf)-1] ^= 0xff
	os.WriteFile(snap, buf, 0o644)

	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	seq, _, err := l2.LatestSnapshot()
	if err != nil || seq != 3 {
		t.Fatalf("LatestSnapshot = (%d, %v), want the older snapshot at 3", seq, err)
	}
	var got []uint64
	err = l2.Replay(seq, func(s uint64, _ []byte) error { got = append(got, s); return nil })
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "gap") {
		t.Fatalf("Replay(3) over a pruned gap = %v (delivered %v), want a gap *CorruptError", err, got)
	}
	if want := l2.segPath(l2.segs[0]); ce.Path != want || len(got) != 0 {
		t.Fatalf("gap error names %q after delivering %v, want %q and nothing delivered", ce.Path, got, want)
	}
	// Without the prune the same replay delivers 4..12 in order.
	l3 := mustOpen(t, t.TempDir(), Options{Policy: SyncOff, SegmentBytes: 64})
	defer l3.Close()
	for i := 1; i <= 12; i++ {
		l3.Append(record(i))
	}
	got = got[:0]
	if err := l3.Replay(3, func(s uint64, _ []byte) error { got = append(got, s); return nil }); err != nil || len(got) != 9 || got[0] != 4 {
		t.Fatalf("Replay(3) = %v, %v; want seqs 4..12", got, err)
	}
}

// TestFailStop fails one fsync under SyncAlways. The append that hit
// it fails, every later call returns the same error, Close writes
// nothing more, and a reopened log does not replay the failed record.
func TestFailStop(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: SyncAlways})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("injected fsync failure")
	l.fsync = func(*os.File) error { return boom }
	_, err := l.Append(record(3))
	if !errors.Is(err, boom) {
		t.Fatalf("Append under a failing fsync = %v, want the injected error", err)
	}
	l.fsync = (*os.File).Sync // the disk "recovers": the log must not
	_, aerr := l.Append(record(4))
	_, serr := l.WriteScenario(9, []byte("s"))
	for name, got := range map[string]error{
		"Append":        aerr,
		"Sync":          l.Sync(),
		"WriteSnapshot": l.WriteSnapshot(3, []byte("state@3")),
		"WriteScenario": serr,
		"Replay":        l.Replay(0, func(uint64, []byte) error { return nil }),
	} {
		if !errors.Is(got, boom) {
			t.Errorf("%s after the failure = %v, want the latched error", name, got)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "s*")); len(files) != 0 {
		t.Errorf("a failed log wrote %v", files)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close of a failed log = %v, want nil (it only closes)", err)
	}

	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	got := collect(t, l2, 0)
	if len(got) != 3 || l2.NextSeq() != 4 {
		t.Fatalf("reopened log holds %d records, next seq %d; want the 3 synced ones and 4", len(got), l2.NextSeq())
	}
}

// TestFailStopRotate fails the fsync that seals a segment: the append
// that needed the rotation fails and nothing more is written.
func TestFailStopRotate(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: SyncInterval, Interval: time.Hour, SegmentBytes: 64})
	if _, err := l.Append(record(0)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fsync failure")
	l.fsync = func(*os.File) error { return boom }
	if _, err := l.Append(record(36)); !errors.Is(err, boom) {
		t.Fatalf("rotating Append = %v, want the injected error", err)
	}
	l.Close()
	if segs, _ := listSeqFiles(dir, segPrefix, segSuffix); len(segs) != 1 {
		t.Fatalf("segments %v after a failed rotation, want the first only", segs)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if got := collect(t, l2, 0); len(got) != 0 {
		t.Fatalf("replayed %d records never synced, want 0", len(got))
	}
}

// TestScenarioFiles pins the scenario-file contract: the file is
// fsynced before it appears under its name, reads back only when its
// length and CRC32C are the ones asked for, names itself in every
// refusal, and PruneScenarios keeps exactly the named seqs.
func TestScenarioFiles(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: SyncOff})
	defer l.Close()
	tmps := 0
	l.fsync = func(f *os.File) error {
		if final, ok := strings.CutSuffix(f.Name(), ".tmp"); ok {
			tmps++
			if _, err := os.Stat(final); !os.IsNotExist(err) {
				t.Errorf("%s is in place before its fsync", final)
			}
		}
		return f.Sync()
	}
	payload := []byte(`{"aps":10}`)
	crc, err := l.WriteScenario(5, payload)
	if want := crc32.Checksum(payload, castagnoli); err != nil || crc != want {
		t.Fatalf("WriteScenario = (%08x, %v), want (%08x, nil)", crc, err, want)
	}
	for _, seq := range []uint64{2, 9} {
		if _, err := l.WriteScenario(seq, []byte("other")); err != nil {
			t.Fatal(err)
		}
	}
	if tmps != 3 {
		t.Fatalf("%d scenario files fsynced under their .tmp name, want 3", tmps)
	}
	got, err := l.ReadScenario(5, uint64(len(payload)), crc)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadScenario = (%q, %v)", got, err)
	}
	path := l.scenarioPath(5)
	if _, err := l.ReadScenario(5, uint64(len(payload)), crc+1); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("ReadScenario with another CRC = %v, want an error naming %s", err, path)
	}
	buf, _ := os.ReadFile(path)
	os.WriteFile(path, buf[:len(buf)-1], 0o644)
	if _, err := l.ReadScenario(5, uint64(len(payload)), crc); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("ReadScenario of a truncated file = %v, want an error naming %s", err, path)
	}
	if err := l.PruneScenarios(9, 5, 0); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := listSeqFiles(dir, scenarioPrefix, scenarioSuffix); len(seqs) != 2 || seqs[0] != 5 || seqs[1] != 9 {
		t.Fatalf("after PruneScenarios(9, 5, 0): %v, want [5 9]", seqs)
	}
	if err := l.PruneScenarios(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadScenario(9, 5, 0); !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), l.scenarioPath(9)) {
		t.Fatalf("ReadScenario of a pruned file = %v, want a missing-file error naming it", err)
	}
}
