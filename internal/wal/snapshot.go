package wal

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteSnapshot atomically persists a state snapshot covering every
// journal record with sequence number <= seq. The payload is framed
// exactly like a journal record (length + CRC32C) so readers detect
// damage, and the file appears atomically: write to .tmp, fsync,
// rename into place, fsync the directory. A crash at any instant
// leaves either no new snapshot or a complete one — never a partial
// file under the real name. The header and the payload are written
// one after the other, so the payload is never copied. A payload over
// Options.MaxRecord is refused before any file is made: LatestSnapshot
// could not read it back, so after the journal is pruned the log
// would not boot.
func (l *Log) WriteSnapshot(seq uint64, payload []byte) error {
	if len(payload) > l.opt.MaxRecord {
		return fmt.Errorf("wal: snapshot of %d bytes exceeds cap %d", len(payload), l.opt.MaxRecord)
	}
	final := l.snapPath(seq)
	tmp := final + ".tmp"
	var hdr [frameHeader]byte
	putFrameHeader(&hdr, payload)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(payload)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	if m := l.opt.Metrics; m != nil && m.Snapshots != nil {
		m.Snapshots.Inc()
	}
	return nil
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
		buf, err := os.ReadFile(l.snapPath(seqs[i]))
		if err != nil {
			continue
		}
		payloads, n, derr := DecodeFrames(buf, l.opt.MaxRecord)
		if derr != nil || len(payloads) != 1 || n != int64(len(buf)) {
			continue // damaged or partial; try the previous snapshot
		}
		return seqs[i], payloads[0], nil
	}
	return 0, nil, nil
}

// PruneSnapshots removes all but the newest keep snapshot files.
func (l *Log) PruneSnapshots(keep int) error {
	if keep < 1 {
		keep = 1
	}
	seqs, err := listSeqFiles(l.dir, snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	for len(seqs) > keep {
		if err := os.Remove(l.snapPath(seqs[0])); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		seqs = seqs[1:]
	}
	return nil
}

func (l *Log) snapPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix))
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
