package wal

import (
	"bytes"
	"hash/crc32"
	"testing"
)

// FuzzWALDecode pins the decoder's recovery contract on arbitrary
// bytes: it never panics, never reads past the buffer, and whatever
// it accepts is a genuine frame prefix — re-encoding the returned
// payloads reproduces buf[:n] byte-for-byte, so no phantom records
// can be invented from corruption. When it stops early it either
// stopped at a tail (torn or clean end: err == nil) or classified
// the damage as a typed *CorruptError; nothing else.
func FuzzWALDecode(f *testing.F) {
	// Seed with realistic shapes: clean multi-record journals, torn
	// tails at every boundary class, zero runs, and flipped bytes.
	var clean []byte
	for i := 0; i < 5; i++ {
		clean = EncodeFrame(clean, bytes.Repeat([]byte{byte('a' + i)}, 3+11*i))
	}
	f.Add(clean, 0)
	f.Add(clean[:len(clean)-3], 0)                                    // torn payload
	f.Add(clean[:5], 0)                                               // torn header
	f.Add(append(clean[:0:0], clean...), 17)                          // mutate later
	f.Add(append(append([]byte{}, clean...), make([]byte, 64)...), 0) // preallocated zeros
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, 0) // oversized length

	const maxRecord = 1 << 16
	f.Fuzz(func(t *testing.T, buf []byte, flip int) {
		if flip != 0 && len(buf) > 0 {
			i := flip % len(buf)
			if i < 0 {
				i += len(buf)
			}
			buf[i] ^= byte(flip)
		}
		payloads, n, err := DecodeFrames(buf, maxRecord)
		if n < 0 || n > int64(len(buf)) {
			t.Fatalf("n = %d out of range [0, %d]", n, len(buf))
		}
		// The accepted prefix must re-encode to exactly buf[:n]: every
		// returned payload is a real frame, in order, with a valid CRC.
		round := []byte{}
		for _, p := range payloads {
			if len(p) == 0 || len(p) > maxRecord {
				t.Fatalf("payload of %d bytes violates frame bounds", len(p))
			}
			round = EncodeFrame(round, p)
		}
		if !bytes.Equal(round, buf[:n]) {
			t.Fatalf("re-encoded prefix differs from accepted bytes")
		}
		if err != nil {
			ce, ok := err.(*CorruptError)
			if !ok {
				t.Fatalf("error is %T, want *CorruptError", err)
			}
			if ce.Offset != n {
				t.Fatalf("CorruptError.Offset = %d, want stop point %d", ce.Offset, n)
			}
		}
		// Decoding the accepted prefix alone must reproduce the same
		// payloads with no error (idempotent recovery).
		again, n2, err2 := DecodeFrames(buf[:n], maxRecord)
		if err2 != nil || n2 != n || len(again) != len(payloads) {
			t.Fatalf("re-decode of accepted prefix: (%d, %d, %v), want (%d, %d, nil)", len(again), n2, err2, len(payloads), n)
		}
		_ = crc32.Castagnoli // anchor: the framing is CRC32C by contract
	})
}
