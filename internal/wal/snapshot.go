package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// WriteSnapshot atomically persists a state snapshot covering every
// journal record with sequence number <= seq. The payload is framed
// exactly like a journal record (length + CRC32C) so readers detect
// damage, and the file appears atomically (see writeFramed). A
// payload over Options.MaxRecord is refused before any file is made:
// LatestSnapshot could not read it back, so after the journal is
// pruned the log would not boot.
func (l *Log) WriteSnapshot(seq uint64, payload []byte) error {
	if _, err := l.writeFramed("snapshot", l.snapPath(seq), payload); err != nil {
		return err
	}
	if m := l.opt.Metrics; m != nil && m.Snapshots != nil {
		m.Snapshots.Inc()
	}
	return nil
}

// WriteScenario atomically persists a payload the caller's snapshots
// name instead of embedding it, as scenario-<seq>.scn, and returns
// the payload's CRC32C for the snapshot to pin. seq is the journal
// record that brought the payload in. The file is framed and written
// like a snapshot, so it is durable under its final name when
// WriteScenario returns: a snapshot written after that can name it.
func (l *Log) WriteScenario(seq uint64, payload []byte) (uint32, error) {
	return l.writeFramed("scenario", l.scenarioPath(seq), payload)
}

// ReadScenario returns scenario-<seq>.scn's payload, provided it is
// intact and is the one a snapshot pinned: size bytes with CRC32C
// crc. A missing, damaged or different file is an error naming it.
func (l *Log) ReadScenario(seq, size uint64, crc uint32) ([]byte, error) {
	path := l.scenarioPath(seq)
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	payload, err := decodeOne(path, buf, l.opt.MaxRecord)
	if err != nil {
		return nil, err
	}
	// decodeOne checked the payload against its header's CRC32C.
	if got := binary.LittleEndian.Uint32(buf[4:8]); uint64(len(payload)) != size || got != crc {
		return nil, fmt.Errorf("wal: scenario file %s holds %d bytes with CRC32C %08x, the snapshot names %d bytes with %08x",
			path, len(payload), got, size, crc)
	}
	return payload, nil
}

// writeFramed writes payload's frame to path atomically: frame it
// into path.tmp, fsync that, rename it into place, fsync the
// directory. A crash at any instant leaves either no new file or a
// complete one — never a partial file under the real name. The
// header and the payload are written one after the other, so the
// payload is never copied. It returns the payload's CRC32C.
func (l *Log) writeFramed(what, path string, payload []byte) (uint32, error) {
	if l.err != nil {
		return 0, l.err
	}
	if len(payload) > l.opt.MaxRecord {
		return 0, fmt.Errorf("wal: %s of %d bytes exceeds cap %d", what, len(payload), l.opt.MaxRecord)
	}
	tmp := path + ".tmp"
	var hdr [frameHeader]byte
	putFrameHeader(&hdr, payload)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = l.fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("wal: %w", err)
	}
	return binary.LittleEndian.Uint32(hdr[4:8]), syncDir(l.dir)
}

// decodeOne returns the payload of a file that must hold exactly one
// intact frame.
func decodeOne(path string, buf []byte, maxRecord int) ([]byte, error) {
	payloads, n, err := DecodeFrames(buf, maxRecord)
	if ce, ok := err.(*CorruptError); ok {
		ce.Path = path
		return nil, ce
	}
	if len(payloads) != 1 || n != int64(len(buf)) {
		return nil, &CorruptError{Path: path, Offset: n, Reason: fmt.Sprintf("want one whole frame, found %d in %d of %d bytes", len(payloads), n, len(buf))}
	}
	return payloads[0], nil
}

// LatestSnapshot returns the newest readable snapshot's covered
// sequence number and payload, falling back past damaged newer files
// to an older intact one. (0, nil, nil) means no usable snapshot
// exists — recovery then replays the journal from the beginning.
func (l *Log) LatestSnapshot() (seq uint64, payload []byte, err error) {
	seqs, err := listSeqFiles(l.dir, snapPrefix, snapSuffix)
	if err != nil {
		return 0, nil, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		path := l.snapPath(seqs[i])
		buf, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if payload, err := decodeOne(path, buf, l.opt.MaxRecord); err == nil {
			return seqs[i], payload, nil
		}
		// Damaged or partial; try the previous snapshot.
	}
	return 0, nil, nil
}

// PruneSnapshots removes every snapshot file but the ones named by
// keep: the caller passes the checkpoint it last cut or booted from,
// and the one it just cut. Pruning by name alone would keep a damaged
// newest file that boot fell back past, and delete the one it used.
func (l *Log) PruneSnapshots(keep ...uint64) error {
	return l.pruneExcept(snapPrefix, snapSuffix, keep)
}

// PruneScenarios removes every scenario file but the ones named by
// keep: the caller passes the seqs its retained snapshots name, and
// the scenario its next snapshot will name.
func (l *Log) PruneScenarios(keep ...uint64) error {
	return l.pruneExcept(scenarioPrefix, scenarioSuffix, keep)
}

// pruneExcept removes the prefix<seq>suffix files whose seq keep does
// not name.
func (l *Log) pruneExcept(prefix, suffix string, keep []uint64) error {
	seqs, err := listSeqFiles(l.dir, prefix, suffix)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if slices.Contains(keep, seq) {
			continue
		}
		if err := os.Remove(l.seqPath(prefix, seq, suffix)); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

func (l *Log) seqPath(prefix string, seq uint64, suffix string) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", prefix, seq, suffix))
}

func (l *Log) snapPath(seq uint64) string { return l.seqPath(snapPrefix, seq, snapSuffix) }

func (l *Log) scenarioPath(seq uint64) string {
	return l.seqPath(scenarioPrefix, seq, scenarioSuffix)
}

// syncDir fsyncs a directory so a just-renamed entry survives a
// machine crash. Some filesystems reject directory fsync; that only
// weakens machine-crash (not process-kill) guarantees, so it is
// tolerated silently.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_ = d.Sync()
	if err := d.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
