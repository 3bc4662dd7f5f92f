// Package wal is a crash-safe append-only record journal with atomic
// snapshot files — the durability substrate under assocd -serve.
//
// A Log is a directory of segment files (journal-<seq>.wal, named by
// the sequence number of their first record) plus snapshot files
// (snap-<seq>.snap, named by the last journal sequence they cover) and
// scenario files (scenario-<seq>.scn, named by the journal record that
// brought the scenario in, so the caller's snapshots can name a large
// payload that never changes instead of copying it).
// Records are opaque byte payloads framed as
//
//	[4-byte LE payload length][4-byte LE CRC32C(payload)][payload]
//
// and appended strictly in sequence order. The framing is the whole
// recovery story: a process killed mid-append leaves a torn tail —
// a short header, a short payload, or a run of preallocated zeros —
// and the decoder recovers the longest valid frame prefix and drops
// the rest. A frame that is provably garbage (a length beyond the
// record cap, or a CRC mismatch over a fully present payload) is
// reported as a *CorruptError instead, so callers can distinguish
// "the crash cost the unsynced tail" (expected, silent) from "the
// journal body rotted" (loud). The decoder never panics on any input;
// FuzzWALDecode pins that.
//
// Durability is policy-driven (Options.Policy): SyncAlways flushes
// and fsyncs every append, SyncInterval batches fsyncs on a clock
// (appends in between sit in a bounded buffer, so a crash loses at
// most the last interval — the same exposure a machine crash gives
// the page cache), SyncOff writes through to the OS on every append
// but never fsyncs. Segment rotation seals the previous file with a
// final fsync, so only the newest segment can ever be torn.
//
// A Log fails stop: after its first write, flush or fsync error every
// later Append, Sync, WriteSnapshot and WriteScenario returns that
// error, Close writes nothing more, and the current segment is cut
// back, best-effort, to the last offset the policy made durable. A
// failed fsync may have dropped dirty pages, so no retry could prove
// what reached the disk; cutting back keeps a record its caller saw
// fail from coming back on the next boot.
//
// Snapshots and scenario files are written atomically: frame the
// payload into a .tmp file, fsync it, rename into place, fsync the
// directory. A reader can always fall back to the previous snapshot
// if the newest one is damaged, and Prune/PruneSnapshots/
// PruneScenarios retire the journal segments, snapshots and scenario
// files the caller's newest snapshots no longer need.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"wlanmcast/internal/obs"
)

// Policy selects when appends reach stable storage.
type Policy int

const (
	// SyncInterval fsyncs at most once per Options.Interval; appends
	// in between stay in the writer buffer. The throughput policy: a
	// crash loses at most one interval of acknowledged-to-buffer data,
	// which the caller's resume protocol must tolerate (assocd's
	// clients rewind to the durable offset).
	SyncInterval Policy = iota
	// SyncAlways flushes and fsyncs every append before it returns.
	SyncAlways
	// SyncOff writes each append through to the OS (so a process kill
	// loses nothing) but never fsyncs (so a machine crash can lose the
	// page-cache tail).
	SyncOff
)

// ParsePolicy maps the -fsync flag values onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

const (
	frameHeader = 8

	// DefaultSegmentBytes rotates segments at 8 MiB — small enough
	// that Prune reclaims space promptly, large enough that rotation
	// fsyncs are rare.
	DefaultSegmentBytes = 8 << 20
	// DefaultMaxRecord caps one record at the assocd request-body cap.
	DefaultMaxRecord = 32 << 20
	// DefaultInterval is the SyncInterval fsync cadence.
	DefaultInterval = 100 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a frame that is garbage rather than torn: the
// journal (or snapshot) body itself is damaged at Offset. Recovery
// code treats it as fatal for mid-journal damage — replaying past a
// hole would silently diverge — while tail damage is repaired by
// truncation at Open.
type CorruptError struct {
	Path   string // file the damage is in ("" for in-memory decodes)
	Offset int64  // byte offset of the bad frame
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("wal: corrupt frame at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("wal: %s: corrupt frame at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Torn describes a truncated tail Open repaired on the newest
// segment: DroppedBytes of unrecoverable frame data were cut at
// Offset. This is the expected signature of a crash mid-append, not
// an error.
type Torn struct {
	Path         string
	Offset       int64
	DroppedBytes int64
	Reason       string
}

// Metrics is the wal's observability surface. The daemon registers
// the families once per process (RegisterMetrics) and hands them to
// every Log it opens; a nil Metrics (or nil fields) disables
// recording without disabling the journal.
type Metrics struct {
	Appends      *obs.Counter   // assocd_wal_appends_total
	Bytes        *obs.Counter   // assocd_wal_bytes_total
	FsyncSeconds *obs.Histogram // assocd_wal_fsync_seconds
	Segments     *obs.Gauge     // assocd_wal_segments
	Snapshots    *obs.Counter   // assocd_wal_snapshots_total
}

// RegisterMetrics creates the assocd_wal_* journal families on reg.
func RegisterMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Appends:      reg.Counter("assocd_wal_appends_total", "Records appended to the event journal."),
		Bytes:        reg.Counter("assocd_wal_bytes_total", "Bytes appended to the event journal (frame headers included)."),
		FsyncSeconds: reg.Histogram("assocd_wal_fsync_seconds", "Wall-clock time per journal fsync.", nil),
		Segments:     reg.Gauge("assocd_wal_segments", "Journal segment files currently on disk."),
		Snapshots:    reg.Counter("assocd_wal_snapshots_total", "Snapshot files written."),
	}
}

// Options tunes a Log. The zero value is usable: SyncInterval at
// DefaultInterval, DefaultSegmentBytes rotation, DefaultMaxRecord cap.
type Options struct {
	Policy       Policy
	Interval     time.Duration // SyncInterval cadence (0 = DefaultInterval)
	SegmentBytes int64         // rotation threshold (0 = DefaultSegmentBytes)
	MaxRecord    int           // per-record byte cap (0 = DefaultMaxRecord)
	Metrics      *Metrics      // optional instruments (nil = unobserved)
	Now          func() time.Time
}

// Log is an append-only journal over one directory. Safe for
// concurrent use; in assocd every call additionally happens under the
// server's engine lock, which is what orders appends against engine
// state.
type Log struct {
	dir string
	opt Options

	// The fields below are guarded by an external convention rather
	// than an embedded mutex: assocd serializes all Log calls under
	// its own lock, and the tests do the same. Keeping the Log
	// lock-free makes the fsync-latency accounting exact.
	f        *os.File
	w        *bufio.Writer
	segs     []uint64 // first seq of each live segment, ascending
	segBytes int64    // bytes in the current segment
	next     uint64   // seq the next Append returns
	lastSync time.Time
	dirty    bool // buffered or unfsynced appends outstanding
	closed   bool
	torn     *Torn
	hdr      [frameHeader]byte
	// durable is the current segment's length at the last point the
	// policy counts as stable: an fsync, or under SyncOff a flush.
	durable int64
	// err is the first write, flush or fsync error, returned by every
	// later call (see the package comment).
	err error
	// fsync syncs a file to stable storage; tests swap it to fail one.
	fsync func(*os.File) error
}

// Open opens (or creates) the journal in dir, repairing a torn tail
// on the newest segment by truncating it to the longest valid frame
// prefix. The next sequence number continues after the surviving
// tail — or after the newest snapshot, whichever is further, so
// sequence numbers stay monotone even when the journal tail was lost
// or pruned.
func Open(dir string, opt Options) (*Log, error) {
	if opt.Interval <= 0 {
		opt.Interval = DefaultInterval
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if opt.MaxRecord <= 0 {
		opt.MaxRecord = DefaultMaxRecord
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opt: opt, fsync: (*os.File).Sync}

	// A crash mid-snapshot leaves a .tmp behind; it was never renamed
	// into place, so it is garbage by construction.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, t := range tmps {
		os.Remove(t)
	}

	var err error
	l.segs, err = listSeqFiles(dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	snaps, err := listSeqFiles(dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, err
	}
	snapFloor := uint64(0)
	if len(snaps) > 0 {
		snapFloor = snaps[len(snaps)-1]
	}

	l.next = 1
	if len(l.segs) > 0 {
		last := l.segs[len(l.segs)-1]
		path := l.segPath(last)
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		payloads, n, derr := DecodeFrames(buf, opt.MaxRecord)
		if n < int64(len(buf)) {
			// Torn or corrupt tail on the newest segment: both are the
			// crash signature here (writeback can garble as well as
			// truncate), so repair by cutting to the valid prefix.
			reason := "torn tail"
			if ce, ok := derr.(*CorruptError); ok {
				reason = ce.Reason
			}
			if err := os.Truncate(path, n); err != nil {
				return nil, fmt.Errorf("wal: repair %s: %w", path, err)
			}
			l.torn = &Torn{Path: path, Offset: n, DroppedBytes: int64(len(buf)) - n, Reason: reason}
		}
		l.next = last + uint64(len(payloads))
		l.segBytes = n
		l.durable = n
	}
	if snapFloor+1 > l.next {
		// The journal tail is behind the newest snapshot (lost or
		// pruned). New records must start past the snapshot, and in a
		// fresh segment so per-segment sequence attribution (first seq
		// + frame index) stays exact.
		l.next = snapFloor + 1
		l.segBytes = 0
		l.durable = 0
		if len(l.segs) > 0 && l.segs[len(l.segs)-1] < l.next {
			l.segs = append(l.segs, l.next)
			if err := l.createSegment(l.next); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
		}
	}
	if len(l.segs) == 0 {
		l.segs = []uint64{l.next}
		if err := l.createSegment(l.next); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
	} else if l.f == nil {
		f, err := os.OpenFile(l.segPath(l.segs[len(l.segs)-1]), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
		l.w = bufio.NewWriter(f)
	}
	l.lastSync = opt.Now()
	if m := opt.Metrics; m != nil && m.Segments != nil {
		m.Segments.Set(float64(len(l.segs)))
	}
	return l, nil
}

// Torn reports the tail repair Open performed, or nil when the
// newest segment ended cleanly.
func (l *Log) Torn() *Torn { return l.torn }

// NextSeq is the sequence number the next Append will return.
func (l *Log) NextSeq() uint64 { return l.next }

// LastSeq is the sequence number of the newest durable-or-buffered
// record (0 when the journal is empty).
func (l *Log) LastSeq() uint64 { return l.next - 1 }

// Dir returns the journal directory.
func (l *Log) Dir() string { return l.dir }

// Append frames payload into the journal and returns its sequence
// number. Whether the record is on stable storage when Append returns
// depends on the policy; Sync forces the matter.
func (l *Log) Append(payload []byte) (uint64, error) {
	if err := l.usable("append"); err != nil {
		return 0, err
	}
	if len(payload) == 0 {
		return 0, fmt.Errorf("wal: empty record (zero length marks end of segment)")
	}
	if len(payload) > l.opt.MaxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds cap %d", len(payload), l.opt.MaxRecord)
	}
	frame := int64(frameHeader + len(payload))
	if l.segBytes > 0 && l.segBytes+frame > l.opt.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	putFrameHeader(&l.hdr, payload)
	if _, err := l.w.Write(l.hdr[:]); err != nil {
		return 0, l.fail(err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return 0, l.fail(err)
	}
	l.segBytes += frame
	seq := l.next
	l.next++
	l.dirty = true
	if m := l.opt.Metrics; m != nil {
		if m.Appends != nil {
			m.Appends.Inc()
		}
		if m.Bytes != nil {
			m.Bytes.Add(uint64(frame))
		}
	}
	switch l.opt.Policy {
	case SyncAlways:
		if err := l.syncNow(); err != nil {
			return 0, err
		}
	case SyncInterval:
		if now := l.opt.Now(); now.Sub(l.lastSync) >= l.opt.Interval {
			if err := l.syncNow(); err != nil {
				return 0, err
			}
		}
	case SyncOff:
		if err := l.w.Flush(); err != nil {
			return 0, l.fail(err)
		}
		l.durable = l.segBytes
	}
	return seq, nil
}

// Sync flushes buffered appends and fsyncs the current segment.
func (l *Log) Sync() error {
	if err := l.usable("sync"); err != nil {
		return err
	}
	if !l.dirty {
		return nil
	}
	return l.syncNow()
}

// usable refuses a call on a closed or failed log.
func (l *Log) usable(op string) error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return fmt.Errorf("wal: %s on closed log", op)
	}
	return nil
}

// fail latches err as the log's failure and cuts the current segment
// back, best-effort, to its last durable offset, so the record whose
// write, flush or fsync failed is not replayed by the next boot.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("wal: %w", err)
		_ = os.Truncate(l.segPath(l.segs[len(l.segs)-1]), l.durable)
	}
	return l.err
}

func (l *Log) syncNow() error {
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	start := l.opt.Now()
	if err := l.fsync(l.f); err != nil {
		return l.fail(err)
	}
	l.lastSync = l.opt.Now()
	if m := l.opt.Metrics; m != nil && m.FsyncSeconds != nil {
		m.FsyncSeconds.Observe(l.lastSync.Sub(start).Seconds())
	}
	l.dirty = false
	l.durable = l.segBytes
	return nil
}

// Close flushes, fsyncs and closes the journal. A failed log is only
// closed: its buffered frames are dropped, not written.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.err == nil {
		err = l.syncNow()
	}
	if l.f != nil {
		if cerr := l.f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("wal: %w", cerr)
		}
	}
	return err
}

// rotate seals the current segment (flush + fsync + close) and starts
// a fresh one named by the next sequence number. Only the newest
// segment can ever be torn.
func (l *Log) rotate() error {
	if err := l.syncNow(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f = nil
	if err == nil {
		err = l.createSegment(l.next)
	}
	if err != nil {
		return l.fail(err)
	}
	l.segs = append(l.segs, l.next)
	l.segBytes, l.durable = 0, 0
	if m := l.opt.Metrics; m != nil && m.Segments != nil {
		m.Segments.Set(float64(len(l.segs)))
	}
	return nil
}

func (l *Log) createSegment(start uint64) error {
	f, err := os.OpenFile(l.segPath(start), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	return nil
}

// Replay walks every record with sequence number > from, in order,
// calling fn(seq, payload). The payload slice is only valid during
// the call. Buffered appends are flushed first so a same-process
// replay sees everything. A torn or corrupt frame anywhere but the
// newest segment's tail returns a *CorruptError: replaying past a
// mid-journal hole would silently diverge from the pre-crash state.
// So does a gap: the records run from+1, from+2, ... without a hole,
// and a segment that starts past the next expected seq (its
// predecessors were pruned or lost) is reported, not skipped.
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	if l.err != nil {
		return l.err
	}
	if l.dirty {
		if err := l.w.Flush(); err != nil {
			return l.fail(err)
		}
	}
	want := from + 1
	for i, start := range l.segs {
		isLast := i == len(l.segs)-1
		if !isLast && l.segs[i+1] <= want {
			continue // the whole segment is <= from
		}
		path := l.segPath(start)
		if start > want {
			return &CorruptError{Path: path, Reason: fmt.Sprintf("journal gap: segment starts at seq %d, replay needs seq %d next", start, want)}
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		payloads, n, derr := DecodeFrames(buf, l.opt.MaxRecord)
		if n < int64(len(buf)) && !isLast {
			reason := "torn tail in non-final segment"
			if ce, ok := derr.(*CorruptError); ok {
				reason = ce.Reason
			}
			return &CorruptError{Path: path, Offset: n, Reason: reason}
		}
		if derr != nil && !isLast {
			return derr
		}
		for j, p := range payloads {
			seq := start + uint64(j)
			if seq <= from {
				continue
			}
			if err := fn(seq, p); err != nil {
				return err
			}
		}
		want = max(want, start+uint64(len(payloads)))
	}
	return nil
}

// Prune removes segments every record of which has sequence number
// <= upTo (typically a snapshot's covered sequence). The newest
// segment is always kept so appends continue in place.
func (l *Log) Prune(upTo uint64) error {
	kept := l.segs[:0]
	for i, start := range l.segs {
		if i+1 < len(l.segs) && l.segs[i+1] <= upTo+1 {
			if err := os.Remove(l.segPath(start)); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			continue
		}
		kept = append(kept, start)
	}
	l.segs = kept
	if m := l.opt.Metrics; m != nil && m.Segments != nil {
		m.Segments.Set(float64(len(l.segs)))
	}
	return nil
}

func (l *Log) segPath(start uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", segPrefix, start, segSuffix))
}

const (
	segPrefix  = "journal-"
	segSuffix  = ".wal"
	snapPrefix = "snap-"
	snapSuffix = ".snap"

	scenarioPrefix = "scenario-"
	scenarioSuffix = ".scn"
)

// listSeqFiles returns the sorted sequence numbers of dir's
// prefix<16-digit-seq>suffix files, ignoring anything else.
func listSeqFiles(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		mid := name[len(prefix) : len(name)-len(suffix)]
		if len(mid) != 16 {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(mid, "%d", &seq); err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// DecodeFrames scans buf for length-prefixed CRC32C frames and
// returns the payloads of the longest valid frame prefix plus the
// number of bytes that prefix spans. The returned payloads alias buf.
//
// Scanning stops at the first frame that cannot complete. A clean or
// torn tail — fewer than 8 header bytes left, a payload the buffer
// cuts short, or a zero length (the signature of preallocated zero
// blocks) — returns err == nil. A frame that is provably garbage — a
// length beyond maxRecord, or a CRC mismatch over a fully present
// payload — returns a *CorruptError carrying the offset. Either way
// the returned prefix is valid, n <= len(buf), and no input panics.
func DecodeFrames(buf []byte, maxRecord int) (payloads [][]byte, n int64, err error) {
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecord
	}
	off := int64(0)
	for {
		rest := buf[off:]
		if len(rest) < frameHeader {
			return payloads, off, nil // clean end or torn header
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		if length == 0 {
			// Zero length never occurs in a written frame (Append
			// rejects empty payloads); treat it as end-of-segment so a
			// preallocated zero run cannot decode as phantom records.
			return payloads, off, nil
		}
		if int64(length) > int64(maxRecord) {
			return payloads, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("frame length %d exceeds record cap %d", length, maxRecord)}
		}
		if int64(len(rest)) < frameHeader+int64(length) {
			return payloads, off, nil // torn payload
		}
		want := binary.LittleEndian.Uint32(rest[4:8])
		payload := rest[frameHeader : frameHeader+int64(length)]
		if crc32.Checksum(payload, castagnoli) != want {
			return payloads, off, &CorruptError{Offset: off, Reason: "crc mismatch"}
		}
		payloads = append(payloads, payload)
		off += frameHeader + int64(length)
	}
}

// EncodeFrame appends one frame for payload to dst and returns the
// extended slice — the exact bytes Append writes, exported so tests
// and fuzzers can build journals without a Log.
func EncodeFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	putFrameHeader(&hdr, payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// putFrameHeader writes payload's frame header (length, CRC32C).
func putFrameHeader(hdr *[frameHeader]byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
}
