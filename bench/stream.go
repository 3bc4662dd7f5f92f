package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"wlanmcast/internal/engine"
)

// The daemon's stream frames (mirrored; cmd packages do not export).
type wireFrame struct {
	Session *struct {
		Token   string `json:"token"`
		Seq     int    `json:"seq"`
		Skipped int    `json:"skipped"`
	} `json:"session"`
	Ack *struct {
		Seq     int `json:"seq"`
		Applied int `json:"applied"`
	} `json:"ack"`
	Done *struct {
		Events int `json:"events"`
	} `json:"done"`
	Drain bool   `json:"drain"`
	Event int    `json:"event"`
	Error string `json:"error"`
}

// stream is one open POST /v1/events/stream: NDJSON events go in
// through send, frames come back through next.
type stream struct {
	pw      *io.PipeWriter
	resp    *http.Response
	sc      *bufio.Scanner
	token   string
	durable int // session offset the daemon reported on connect
}

// openStream connects and consumes the leading session frame. With a
// token it resumes that session at event offset resume. The endpoint
// serves one stream at a time and frees its slot a moment after the
// previous stream's done frame, so a 429 right behind one is retried
// briefly.
func (d *daemon) openStream(window int, token string, resume int) (*stream, error) {
	u := d.url("/v1/events/stream?window=" + strconv.Itoa(window))
	if token != "" {
		u += "&session=" + url.QueryEscape(token) + "&resume=" + strconv.Itoa(resume)
	}
	var (
		pw   *io.PipeWriter
		resp *http.Response
	)
	for attempt := 0; ; attempt++ {
		var pr *io.PipeReader
		pr, pw = io.Pipe()
		req, err := http.NewRequest("POST", u, pr)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		if resp, err = httpc.Do(req); err != nil {
			pr.CloseWithError(err)
			return nil, fmt.Errorf("open stream: %w", err)
		}
		if resp.StatusCode == http.StatusOK {
			break
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		pr.CloseWithError(io.ErrClosedPipe)
		if resp.StatusCode != http.StatusTooManyRequests || attempt == 100 {
			return nil, fmt.Errorf("open stream: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := &stream{pw: pw, resp: resp, sc: bufio.NewScanner(resp.Body)}
	s.sc.Buffer(make([]byte, 64<<10), 1<<20)
	f, err := s.next()
	if err != nil {
		s.abort()
		return nil, err
	}
	if f.Session == nil {
		s.abort()
		return nil, fmt.Errorf("stream opened without a session frame")
	}
	s.token, s.durable = f.Session.Token, f.Session.Seq
	return s, nil
}

// next reads one frame; an in-band error frame, a drain frame and a
// closed connection are all errors here, because no workload expects
// them.
func (s *stream) next() (wireFrame, error) {
	var f wireFrame
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return f, fmt.Errorf("read stream frame: %w", err)
		}
		return f, fmt.Errorf("stream closed before its done frame")
	}
	if err := json.Unmarshal(s.sc.Bytes(), &f); err != nil {
		return f, fmt.Errorf("bad stream frame %q: %w", s.sc.Text(), err)
	}
	if f.Error != "" {
		return f, fmt.Errorf("daemon rejected event %d: %s", f.Event, f.Error)
	}
	if f.Drain {
		return f, fmt.Errorf("daemon drained the stream")
	}
	return f, nil
}

func (s *stream) send(b []byte) error {
	_, err := s.pw.Write(b)
	return err
}

// readToDone reads on to the done frame, calling onAck (if set) for
// every ack on the way; the caller has closed, or will close, the
// request body. It returns the events the daemon says it applied.
func (s *stream) readToDone(onAck func(seq int, at time.Time)) (int, error) {
	defer s.resp.Body.Close()
	for {
		f, err := s.next()
		if err != nil {
			return 0, err
		}
		switch {
		case f.Ack != nil && onAck != nil:
			onAck(f.Ack.Seq, time.Now())
		case f.Done != nil:
			return f.Done.Events, nil
		}
	}
}

func (s *stream) abort() {
	s.pw.CloseWithError(io.ErrClosedPipe)
	s.resp.Body.Close()
}

// encoded is a trace as the wire carries it: every event marshalled
// once, before any clock starts, so the load generator's measured
// work is writing bytes.
type encoded struct {
	buf []byte
	off []int // event i is buf[off[i]:off[i+1]], newline included
}

func encodeEvents(events []engine.Event) (*encoded, error) {
	e := &encoded{off: make([]int, 1, len(events)+1)}
	for i := range events {
		b, err := json.Marshal(&events[i])
		if err != nil {
			return nil, err
		}
		e.buf = append(e.buf, b...)
		e.buf = append(e.buf, '\n')
		e.off = append(e.off, len(e.buf))
	}
	return e, nil
}

func (e *encoded) len() int { return len(e.off) - 1 }

// lines is events [i, j) as NDJSON.
func (e *encoded) lines(i, j int) []byte { return e.buf[e.off[i]:e.off[j]] }

// object is event i as one JSON object, without the newline.
func (e *encoded) object(i int) []byte { return e.buf[e.off[i] : e.off[i+1]-1] }

// sample is one client-observed operation: a request or a window,
// from its first byte written to its acknowledgement read.
type sample struct {
	sent, acked time.Time
}

func (s sample) ms() float64 { return float64(s.acked.Sub(s.sent)) / 1e6 }

// part is a run of consecutive trace events the daemon applied in
// calls of `window` events each (1 = one POST per event). The
// reference engine replays parts with the same call boundaries.
type part struct {
	from, to, window int
	// paced marks an open-loop part: the daemon idled between its
	// windows, so its wall time says nothing about engine cost.
	paced bool
}

// streamUnpaced sends whole windows from `from` as fast as the
// connection takes them — the daemon reads at most a window ahead, so
// TCP backpressure closes the loop — until the deadline or the trace
// ends. It returns the part sent, when the first window went out and
// when each ack came back.
func (d *daemon) streamUnpaced(tr *tracer, enc *encoded, from, limit, window int, deadline time.Time) (part, time.Time, []time.Time, error) {
	s, err := d.openStream(window, "", 0)
	if err != nil {
		return part{}, time.Time{}, nil, err
	}
	start := time.Now()
	sent := make(chan int, 1)
	go func() {
		i := from
		for i+window <= limit && (i == from || time.Now().Before(deadline)) {
			if s.send(enc.lines(i, i+window)) != nil {
				break // the reader reports why the stream died
			}
			i += window
		}
		s.pw.Close()
		sent <- i
	}()
	var acks []time.Time
	prev := start
	applied, err := s.readToDone(func(_ int, at time.Time) {
		acks = append(acks, at)
		tr.add("stream.window", prev, at)
		prev = at
	})
	if err != nil {
		s.abort()
		<-sent
		return part{}, start, nil, err
	}
	to := <-sent
	if applied != to-from || len(acks) != (to-from)/window {
		return part{}, start, nil, fmt.Errorf("daemon applied %d of %d streamed events in %d acks", applied, to-from, len(acks))
	}
	return part{from: from, to: to, window: window}, start, acks, nil
}

// pacedResult is what an open-loop phase measured.
type pacedResult struct {
	part   part
	ackMS  []float64 // per window: ack receipt − due time of its last event
	lateMS []float64 // per window: write start − due time
}

// streamPaced is the open loop: window j is written when its last
// event is due at `rate` events/s, whether or not earlier acks have
// arrived, and each ack is timed from that due time, so a stall also
// counts against the windows queued behind it.
func (d *daemon) streamPaced(tr *tracer, enc *encoded, from, windows, window int, rate float64) (pacedResult, error) {
	res := pacedResult{part: part{from: from, to: from + windows*window, window: window, paced: true}, ackMS: make([]float64, windows), lateMS: make([]float64, windows)}
	s, err := d.openStream(window, "", 0)
	if err != nil {
		return res, err
	}
	start := time.Now()
	due := func(j int) time.Time {
		return start.Add(time.Duration(float64((j+1)*window) / rate * float64(time.Second)))
	}
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		defer s.pw.Close()
		for j := 0; j < windows; j++ {
			time.Sleep(time.Until(due(j)))
			res.lateMS[j] = float64(time.Since(due(j))) / 1e6
			if s.send(enc.lines(from+j*window, from+(j+1)*window)) != nil {
				return
			}
		}
	}()
	acked := 0
	applied, err := s.readToDone(func(seq int, at time.Time) {
		if j := seq/window - 1; j >= 0 && j < windows && seq%window == 0 {
			res.ackMS[j] = float64(at.Sub(due(j))) / 1e6
			tr.add("stream.window", due(j), at)
			acked++
		}
	})
	if err != nil {
		s.abort()
		<-wrote
		return res, err
	}
	<-wrote
	if applied != windows*window || acked != windows {
		return res, fmt.Errorf("paced stream: %d of %d events applied, %d of %d windows acked", applied, windows*window, acked, windows)
	}
	return res, nil
}

// streamClosed is the closed loop: one window in flight, the next
// written only after the previous ack. It resumes session `token` at
// offset `from`; a first connection has no token and starts at 0. It
// returns the session's token and the per-window round trips. Past the
// deadline it
// goes on until the number of windows sent is phase modulo period, so
// a caller can end a part at a fixed point of the daemon's snapshot
// cycle.
func (d *daemon) streamClosed(tr *tracer, enc *encoded, from, limit, window int, token string, deadline time.Time, period, phase int) (part, string, []sample, error) {
	s, err := d.openStream(window, token, from)
	if err != nil {
		return part{}, "", nil, err
	}
	if token != "" && s.durable != from {
		s.abort()
		return part{}, "", nil, fmt.Errorf("session %s is durable to %d, the client was acked to %d", token, s.durable, from)
	}
	var rtt []sample
	i := from
	for i+window <= limit && (len(rtt)%period != phase || time.Now().Before(deadline)) {
		t0 := time.Now()
		if err := s.send(enc.lines(i, i+window)); err != nil {
			s.abort()
			return part{}, "", nil, fmt.Errorf("write window: %w", err)
		}
		f, err := s.next()
		if err != nil {
			s.abort()
			return part{}, "", nil, err
		}
		if f.Ack == nil || f.Ack.Seq != i+window { // acks carry the session offset
			s.abort()
			return part{}, "", nil, fmt.Errorf("expected ack %d, got frame %+v", i+window, f)
		}
		t1 := time.Now()
		tr.add("stream.window", t0, t1)
		rtt = append(rtt, sample{t0, t1})
		i += window
	}
	s.pw.Close()
	if applied, err := s.readToDone(nil); err != nil {
		s.abort()
		return part{}, "", nil, err
	} else if applied != i-from {
		return part{}, "", nil, fmt.Errorf("daemon applied %d of %d streamed events", applied, i-from)
	}
	return part{from: from, to: i, window: window}, s.token, rtt, nil
}
