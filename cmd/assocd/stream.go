package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"wlanmcast/internal/engine"
	"wlanmcast/internal/stream"
)

// POST /v1/events/stream — the streaming ingest endpoint, the daemon's
// side of package stream, which defines the frames and the resume and
// rewind rules. The handler decodes the NDJSON body into a pooled
// window of at most `window` events (?window=N, default 512, cap
// 8192), applies each window as one engine.ApplyBatch under the engine
// lock, and writes one ack frame per window.
//
// Backpressure is structural: the daemon reads at most one window
// ahead of the engine, so a client that outruns it fills the TCP
// buffers and blocks on write. Overload across connections is
// explicit: one stream at a time, and a second gets 429 with
// Retry-After rather than queueing.
//
// A rejected event ends the stream with an error frame in the
// /v1/events wire shape ("event %d: ... (%d applied)"): the window's
// valid prefix is applied (the ApplyBatch contract) and the rest
// dropped. Undecodable and oversized (> 1 MiB) lines end it the same
// way, and a graceful shutdown ends it with a drain frame after the
// current window.

const (
	streamDefaultWindow = 512
	streamMaxWindow     = 8192
	// maxStreamLine bounds one NDJSON line; a single event is tens of
	// bytes, so 1 MiB is generous without letting a hostile client
	// balloon the scanner buffer.
	maxStreamLine = 1 << 20
	// streamDrainLimit / streamDrainTimeout bound how much of a
	// terminated stream's request body the handler will consume before
	// giving up and aborting the connection instead (see discardStream).
	streamDrainLimit   = 4 << 20
	streamDrainTimeout = 10 * time.Second
	// streamIdleTimeout is the rolling per-window read deadline: the
	// server's absolute ReadTimeout would kill any stream longer than
	// 30s, so the handler re-arms a generous idle deadline instead —
	// a client that sends nothing for this long is gone.
	streamIdleTimeout = 120 * time.Second
	// streamWriteTimeout is the per-frame write deadline, re-armed
	// before every flush for the same reason.
	streamWriteTimeout = 30 * time.Second
)

// streamBuf is one connection's reusable decode window, pooled across
// connections so a steady stream of reconnects does not churn the
// heap. Capacity is bounded by streamMaxWindow (events) and the
// window's raw bytes (raw — the journal's copy of the wire lines,
// accumulated per window so the hot path never re-encodes events).
type streamBuf struct {
	events []engine.Event
	raw    []byte
}

var streamBufs = sync.Pool{New: func() any { return new(streamBuf) }}

func (s *server) handleEventsStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	window := streamDefaultWindow
	if q := r.URL.Query().Get("window"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			httpError(w, http.StatusBadRequest, "invalid window %q", q)
			return
		}
		window = min(v, streamMaxWindow)
	}
	var resume uint64
	if q := r.URL.Query().Get("resume"); q != "" {
		v, err := strconv.ParseUint(q, 10, 63)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid resume offset %q", q)
			return
		}
		resume = v
	}
	clientTok := r.URL.Query().Get("session")
	tok := clientTok
	if tok == "" {
		tok = newSessionToken()
	}
	s.mu.Lock()
	eng := s.eng
	durable, known := s.sessions[tok]
	s.mu.Unlock()
	if eng == nil {
		httpError(w, http.StatusConflict, "no scenario loaded; POST /v1/scenario first")
		return
	}
	if clientTok != "" && known {
		s.walResumes.Inc()
	}
	// Single-flight: a second stream would interleave windows with the
	// first on one engine, destroying both clients' seq accounting.
	// 429 + Retry-After is honest overload, not a queue.
	if !s.streamSlot.CompareAndSwap(false, true) {
		s.streamBusy.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "another event stream is active; retry later")
		return
	}
	rc := http.NewResponseController(w)
	// Every exit path — error frame, cannot-resume, drain, clean done —
	// must leave the body at EOF or kill the connection; see
	// discardStream. On the happy path the scanner has already consumed
	// the body and this is a free EOF read. Registered before the slot
	// release so the slot frees first: a draining connection no longer
	// touches the engine.
	defer discardStream(rc, r.Body)
	s.streamConns.Inc()
	s.streamActive.Set(1)
	// release frees the slot at most once. Every terminal frame is
	// written after it, not before: a client that just read its
	// terminal frame reconnects immediately, and it must not 429
	// against this handler's own exit.
	held := true
	release := func() {
		if held {
			held = false
			s.streamActive.Set(0)
			s.streamSlot.Store(false)
		}
	}
	defer release()

	buf := streamBufs.Get().(*streamBuf)
	defer streamBufs.Put(buf)

	// Acks flow while the request body is still streaming in; without
	// full duplex net/http/1.x closes the body on the first response
	// write. Best-effort: writers that do not support the call (HTTP/2
	// is duplex natively, test recorders have no connection) still
	// stream correctly.
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc.Flush() // release the headers so the client can read acks early
	enc := json.NewEncoder(w)

	// The session frame always leads: it tells the client its token,
	// the session's durable offset, and how many of the lines it is
	// about to (re-)send will be discarded as already applied.
	var toSkip uint64
	if durable > resume {
		toSkip = durable - resume
	}
	if !s.writeFrame(enc, rc, stream.Frame{Session: &stream.Session{Token: tok, Seq: durable, Skipped: toSkip}}) {
		return
	}
	if resume > durable {
		release()
		s.streamError(enc, rc, int(durable),
			fmt.Sprintf("%s %d: session %q is durable to %d", stream.CannotResumePrefix, resume, tok, durable))
		return
	}
	s.walResumeSkipped.Add(toSkip)

	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), maxStreamLine)

	var done stream.Done
	seq := durable // session-global offset of the next event to apply
	events, raw := buf.events, buf.raw
	defer func() { buf.events, buf.raw = events, raw }()
	for {
		// Rolling idle deadline: each window gets a fresh read budget
		// (the server-wide absolute ReadTimeout is overridden here).
		rc.SetReadDeadline(time.Now().Add(streamIdleTimeout))
		events = events[:0]
		raw = raw[:0]
		eof := false
		for len(events) < window {
			if !sc.Scan() {
				eof = true
				break
			}
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			// Re-sent lines below the durable offset were applied (and
			// journaled) by a previous connection: count them off, do not
			// re-apply — that is the exactly-once half of resume.
			if toSkip > 0 {
				toSkip--
				continue
			}
			// Grow-then-zero so json.Unmarshal writes into the pooled
			// slot: omitted fields must not inherit the previous
			// window's values.
			events = append(events, engine.Event{})
			k := len(events) - 1
			if err := json.Unmarshal(line, &events[k]); err != nil {
				gidx := int(seq) + k
				release()
				s.streamError(enc, rc, gidx, fmt.Sprintf("event %d: decode: %v", gidx, err))
				return
			}
			// sc.Bytes() is only valid until the next Scan: append copies
			// the line into the pooled journal buffer now.
			raw = append(raw, line...)
			raw = append(raw, '\n')
		}
		if len(events) > 0 {
			br, newSeq, err := s.applyStreamWindow(eng, events, raw, tok, seq)
			done.Redecisions += br.Redecisions
			done.Moves += br.Moves
			done.Events += br.Applied
			s.streamEvents.Add(uint64(br.Applied))
			if err != nil {
				gidx := int(seq) + br.Applied
				release()
				s.streamError(enc, rc, gidx, fmt.Sprintf("event %d: %v (%d applied)", gidx, err, br.Applied))
				return
			}
			seq = newSeq
			s.streamWindows.Inc()
			if !s.writeFrame(enc, rc, stream.Frame{Ack: &stream.Ack{
				Seq:         int(seq),
				Applied:     br.Applied,
				Redecisions: br.Redecisions,
				Moves:       br.Moves,
			}}) {
				return
			}
		}
		if eof {
			break
		}
		// Graceful shutdown: everything acked is journaled; tell the
		// client to reconnect to the restarted daemon and stop reading
		// so srv.Shutdown does not wait out this stream's idle timeout.
		if s.draining.Load() {
			release()
			s.writeFrame(enc, rc, stream.Frame{Drain: true})
			return
		}
	}
	if err := sc.Err(); err != nil {
		release()
		s.streamError(enc, rc, int(seq), fmt.Sprintf("event %d: read: %v", seq, err))
		return
	}
	s.mu.Lock()
	if s.eng == eng {
		done.TotalLoad = eng.TotalLoad()
		done.MaxLoad = eng.MaxLoad()
	}
	s.mu.Unlock()
	release()
	s.writeFrame(enc, rc, stream.Frame{Done: &done})
}

// applyStreamWindow runs one window through commit and returns the
// session's new offset: past the window, or only past its applied
// prefix on a rejection, so a reconnect resumes exactly at the
// offending event. Exec and journal share one engine-lock hold, so an
// unacked window dies with the process and the client re-sends it. It
// also defends against a concurrent scenario swap: applying to a
// replaced engine would silently stream into an object no reader can
// see.
func (s *server) applyStreamWindow(eng *engine.Engine, events []engine.Event, raw []byte, sess string, seq uint64) (engine.BatchResult, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eng != eng {
		return engine.BatchResult{}, seq, fmt.Errorf("scenario replaced mid-stream")
	}
	c := &command{hdr: recHeader{T: recWindow, N: len(events), Sess: sess}, lines: raw, events: events, from: seq}
	br, _, err := s.commit(c)
	return br, c.hdr.Seq, err
}

// streamError emits an in-band error frame; the caller terminates the
// stream afterwards.
func (s *server) streamError(enc *json.Encoder, rc *http.ResponseController, gidx int, msg string) {
	s.streamErrors.Inc()
	s.writeFrame(enc, rc, stream.Frame{Event: gidx, Error: msg})
}

// discardStream consumes whatever remains of the request body after a
// stream terminates early (error frame, cannot-resume, drain). The
// handler enabled full duplex, which tells net/http NOT to consume the
// body before the response — so if we return with bytes still unread,
// the server's own post-handler drain races its background-read
// bookkeeping (finishRequest aborts pending reads *before* closing the
// body, and the close-time drain re-arms one on EOF), which panics the
// connection's next read with "invalid concurrent Body.Read call" and
// can desync keep-alive reuse. Reading to EOF here restores the
// invariant the non-duplex server enforces. The terminal frame has
// already been flushed, so a live client stops sending promptly; if
// EOF still does not arrive within the byte/time bounds, the
// connection must not be reused — abort it.
func discardStream(rc *http.ResponseController, body io.Reader) {
	rc.SetReadDeadline(time.Now().Add(streamDrainTimeout))
	n, err := io.Copy(io.Discard, io.LimitReader(body, streamDrainLimit))
	if err != nil || n == streamDrainLimit {
		panic(http.ErrAbortHandler)
	}
}

// writeFrame writes one NDJSON frame and flushes it, under a fresh
// write deadline. A false return means the client is gone.
func (s *server) writeFrame(enc *json.Encoder, rc *http.ResponseController, f stream.Frame) bool {
	rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	if err := enc.Encode(f); err != nil {
		return false
	}
	rc.Flush()
	return true
}
