package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlanmcast/internal/engine"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/stream"
	"wlanmcast/internal/wal"
	"wlanmcast/internal/wlan"
)

// fuzzSpec is one small geometric scenario shared by every fuzz
// execution; each exec materializes a fresh network from it so engine
// mutations cannot leak between inputs.
func fuzzSpec(tb testing.TB) *scenario.Spec {
	tb.Helper()
	spec, err := scenario.Generate(scenario.Params{
		NumAPs: 6, NumUsers: 10, NumSessions: 2, Seed: 42,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// FuzzDecodeEvents pins the /v1/events contract end to end: arbitrary
// bytes fed to the decoder must yield a typed error or a decoded event
// list — never a panic — and every decoded event the engine rejects
// must leave the association snapshot untouched (engine.Apply's
// *InvalidEventError guarantee).
func FuzzDecodeEvents(f *testing.F) {
	// Seed corpus: the documented wire forms plus near-miss shapes.
	f.Add([]byte(`{"kind":"join","user":7,"pos":{"x":100,"y":200},"session":1}`))
	f.Add([]byte(`[{"kind":"leave","user":0},{"kind":"move","user":1,"pos":{"x":5,"y":5}}]`))
	f.Add([]byte(`{"kind":"demand","user":2,"session":0}`))
	f.Add([]byte(`[{"kind":"ap_down","ap":3,"user":-1},{"kind":"ap_up","ap":3,"user":-1}]`))
	f.Add([]byte(`{"kind":"warp","user":1}`))
	f.Add([]byte(`{"kind":"join","user":999999,"session":-4}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`42`))
	f.Add([]byte(`"join"`))
	f.Add([]byte(`[{`))
	f.Add([]byte(``))
	f.Add([]byte(`{"kind":"move","user":1,"pos":{"x":1e308,"y":-1e308}}`))
	f.Add([]byte{0xff, 0xfe, 0x00})

	spec := fuzzSpec(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		events, err := decodeEvents(body)
		if err != nil {
			// Decode failures must be JSON-layer errors, not panics
			// smuggled into err; nothing was decoded so nothing to apply.
			return
		}
		n, err := spec.Network()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(n, engine.Config{ActiveUsers: 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			before := eng.Snapshot()
			beforeActive := eng.ActiveUsers()
			if _, err := eng.Apply(ev); err != nil {
				var invalid *engine.InvalidEventError
				if !errors.As(err, &invalid) {
					t.Fatalf("Apply(%+v) returned an untyped error: %v", ev, err)
				}
				after := eng.Snapshot()
				if !before.Equal(after) {
					t.Fatalf("Apply(%+v) rejected the event but mutated the snapshot", ev)
				}
				if eng.ActiveUsers() != beforeActive {
					t.Fatalf("Apply(%+v) rejected the event but changed the active set", ev)
				}
			}
		}
	})
}

// FuzzDecodeMultiAssoc pins the PUT /v1/multiassoc contract, mirroring
// FuzzDecodeEvents: arbitrary bytes fed to the decoder yield a typed
// error or a valid multi-association — never a panic — and every
// decoded value the engine rejects must leave the engine's persisted
// state byte-identical (SetMultiAssoc validates completely before
// mutating).
func FuzzDecodeMultiAssoc(f *testing.F) {
	// Seed corpus: the wire form (array of per-user AP-id arrays) plus
	// near-miss shapes: wrong user count, out-of-range and duplicate AP
	// ids, over-cap degrees, non-array JSON, junk bytes.
	f.Add([]byte(`[[0,1],[2],[],[],[],[],[],[],[],[3]]`))
	f.Add([]byte(`[[0],[1],[2],[3],[4],[5],[0],[1],[2],[3]]`))
	f.Add([]byte(`[[],[],[],[],[],[],[],[],[],[]]`))
	f.Add([]byte(`[[0],[1]]`))
	f.Add([]byte(`[[5,0]]`))
	f.Add([]byte(`[[0,0],[],[],[],[],[],[],[],[],[]]`))
	f.Add([]byte(`[[0,1,2],[],[],[],[],[],[],[],[],[]]`))
	f.Add([]byte(`[[-1],[],[],[],[],[],[],[],[],[]]`))
	f.Add([]byte(`[[9],[],[],[],[],[],[],[],[],[]]`))
	f.Add([]byte(`[null,[],[],[],[],[],[],[],[],[]]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`42`))
	f.Add([]byte(`[[`))
	f.Add([]byte(``))
	f.Add([]byte{0xff, 0xfe, 0x00})

	spec := fuzzSpec(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		n, err := spec.Network()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(n, engine.Config{ActiveUsers: 6, MaxHomes: 2})
		if err != nil {
			t.Fatal(err)
		}
		ma, err := wlan.DecodeMultiAssoc(body, eng.NumAPs(), eng.NumUsers(), eng.MaxHomes())
		if err != nil {
			return // decode failures carry no state to apply
		}
		before, err := eng.EncodeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SetMultiAssoc(ma); err != nil {
			after, eerr := eng.EncodeSnapshot()
			if eerr != nil {
				t.Fatal(eerr)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("SetMultiAssoc rejected %s but mutated the engine:\nbefore: %s\nafter:  %s", body, before, after)
			}
			return
		}
		// An accepted install must produce a state the engine itself
		// considers valid.
		if err := eng.Network().ValidateMulti(eng.MultiSnapshot(), false); err != nil {
			t.Fatalf("accepted install %s left an invalid multi-association: %v", body, err)
		}
	})
}

// FuzzStreamEvents pins the /v1/events/stream contract: any byte
// stream pushed through the real handler yields a well-formed NDJSON
// frame sequence — zero or more acks with strictly increasing seq,
// terminated by exactly one done or error frame — never a panic, and
// a stream that applied nothing leaves the association untouched.
func FuzzStreamEvents(f *testing.F) {
	valid := `{"kind":"move","user":0,"pos":{"x":50,"y":60}}` + "\n"
	f.Add([]byte(valid + valid + valid))
	f.Add([]byte(valid + `{"kind":"join","user":0,"session":1}` + "\n" + valid))
	f.Add([]byte("\n\n" + valid + "\n"))
	f.Add([]byte(`{"kind":"warp"}` + "\n"))
	f.Add([]byte(`{not json}` + "\n" + valid))
	f.Add([]byte(`[{"kind":"leave","user":0}]` + "\n")) // array is not a stream line
	f.Add([]byte(valid[:20]))                           // truncated line, no newline
	f.Add([]byte(``))
	f.Add([]byte{0xff, 0xfe, 0x00, '\n'})

	f.Fuzz(func(t *testing.T, body []byte) {
		s := newServer()
		s.errlog = io.Discard
		screq := httptest.NewRequest("POST", "/v1/scenario",
			strings.NewReader(`{"aps":6,"users":10,"sessions":2,"seed":42,"active_users":6}`))
		srec := httptest.NewRecorder()
		s.ServeHTTP(srec, screq)
		if srec.Code != 200 {
			t.Fatalf("scenario load failed: %d %s", srec.Code, srec.Body)
		}
		assocBefore := recordGet(s, "/v1/assoc")

		req := httptest.NewRequest("POST", "/v1/events/stream?window=4", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("stream status = %d, want 200 once headers are sent", rec.Code)
		}

		lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
		applied, lastSeq, terminal := 0, 0, false
		for i, line := range lines {
			if line == "" && len(lines) == 1 {
				t.Fatal("stream produced no frames; want at least done or error")
			}
			if terminal {
				t.Fatalf("frame %d %q after the terminal frame", i, line)
			}
			var fr stream.Frame
			if err := json.Unmarshal([]byte(line), &fr); err != nil {
				t.Fatalf("frame %d %q is not JSON: %v", i, line, err)
			}
			switch {
			case fr.Session != nil:
				// The session frame opens every stream, exactly once.
				if i != 0 {
					t.Fatalf("frame %d %q: session frame after the first position", i, line)
				}
			case fr.Ack != nil:
				if fr.Ack.Seq <= lastSeq {
					t.Fatalf("ack seq %d after %d is not increasing", fr.Ack.Seq, lastSeq)
				}
				lastSeq = fr.Ack.Seq
				applied += fr.Ack.Applied
			case fr.Done != nil:
				terminal = true
				applied = fr.Done.Events
			case fr.Drain:
				terminal = true
			case fr.Error != "":
				terminal = true
				// Engine rejections carry "(k applied)": that window
				// prefix is applied without an ack frame.
				if p := strings.LastIndex(fr.Error, "("); p >= 0 {
					var k int
					if n, _ := fmt.Sscanf(fr.Error[p:], "(%d applied)", &k); n == 1 {
						applied += k
					}
				}
			default:
				t.Fatalf("frame %d %q is neither ack, done, nor error", i, line)
			}
		}
		if !terminal {
			t.Fatalf("stream ended without a done or error frame: %q", rec.Body.String())
		}
		if applied == 0 {
			if after := recordGet(s, "/v1/assoc"); after != assocBefore {
				t.Fatalf("stream applied nothing but the association changed:\nbefore: %s\nafter:  %s", assocBefore, after)
			}
		}
	})
}

// recordGet issues an in-process GET and returns the body.
func recordGet(s *server, path string) string {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Body.String()
}

// TestDecodeEventsForms pins the two accepted wire forms and the error
// form (the fuzz target only checks "no panic"; this checks meaning).
func TestDecodeEventsForms(t *testing.T) {
	one, err := decodeEvents([]byte(`{"kind":"leave","user":3}`))
	if err != nil || len(one) != 1 || one[0].Kind != engine.UserLeave || one[0].User != 3 {
		t.Fatalf("single object decode = %+v, %v", one, err)
	}
	many, err := decodeEvents([]byte(`[{"kind":"ap_down","ap":1},{"kind":"ap_up","ap":1}]`))
	if err != nil || len(many) != 2 || many[1].Kind != engine.APUp {
		t.Fatalf("array decode = %+v, %v", many, err)
	}
	if _, err := decodeEvents([]byte(`{"kind":`)); err == nil {
		t.Fatal("truncated JSON must error")
	}
	var jsonErr *json.SyntaxError
	if _, err := decodeEvents([]byte(`nope`)); !errors.As(err, &jsonErr) {
		t.Fatalf("want a wrapped *json.SyntaxError, got %v", err)
	}
}

// FuzzDecodeSnapshotEnvelope pins the checkpoint decoder on arbitrary
// bytes: it never panics, and a binary envelope it accepts has exactly
// one encoding, so re-encoding what it decoded (v2 with encodeSnapshot,
// v1 with the earlier layout) reproduces the input byte for byte. The
// seeds are the journal fixtures' checkpoints (JSON, v1, v2) and
// envelopes with stream sessions.
func FuzzDecodeSnapshotEnvelope(f *testing.F) {
	for _, dir := range journalFixtures {
		names, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		for _, name := range names {
			buf, err := os.ReadFile(name)
			if err != nil {
				f.Fatal(err)
			}
			payloads, _, err := wal.DecodeFrames(buf, 0)
			if err != nil || len(payloads) != 1 {
				f.Fatalf("%s: %d frames, %v", name, len(payloads), err)
			}
			f.Add(payloads[0])
		}
	}
	snap := daemonSnap{Engine: []byte("engine"), Sessions: map[string]uint64{"a": 1, "tok": 1 << 40}}
	f.Add(encodeSnapshotV1(daemonSnap{Scenario: json.RawMessage(durableScenario), Engine: snap.Engine, Sessions: snap.Sessions}))
	snap.Ref = scenarioRef{Seq: 1, Len: uint64(len(durableScenario)), CRC: 0x9a3c5e71}
	f.Add(encodeSnapshot(snap))
	f.Add([]byte(`{"scenario":{"aps":1},"engine":"","sessions":{"a":1}}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		snap, err := decodeSnapshot(blob)
		if err != nil || blob[0] == '{' {
			return
		}
		again := encodeSnapshotV1(snap)
		if snap.Ref.Seq != 0 {
			again = encodeSnapshot(snap)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("accepted envelope re-encodes differently:\nin  %x\nout %x", blob, again)
		}
	})
}
