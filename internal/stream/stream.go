// Package stream is the one definition of assocd's streaming ingest
// protocol, POST /v1/events/stream: the NDJSON response frames the
// daemon writes, and the resumable client that loadgen and the
// crash-recovery harness drive it with.
//
// The request body is NDJSON, one churn event per line in the
// /v1/events shape. The response is NDJSON frames, each carrying
// exactly one of:
//
//	{"session":{"token":"ab12…","seq":4096,"skipped":1024}}
//	{"ack":{"seq":2048,"applied":512,"redecisions":63,"moves":12}}
//	{"done":{"events":100000,"redecisions":12040,"moves":3011,"total_load":12.5,"max_load":0.71}}
//	{"drain":true}
//	{"event":731,"error":"event 731: engine: invalid \"join\" event: user 9 is already active (219 applied)"}
//
// The session frame always leads. Its token names the stream session
// (?session=tok reuses one; the daemon mints a token otherwise), seq
// is the session's durable offset — the number of events it has
// applied under that token — and skipped is how many of the client's
// re-sent leading lines it will discard as already applied. An ack
// follows each applied window; its seq is the session-global offset.
// A clean EOF ends with a done frame, a graceful shutdown with a
// drain frame, and a rejected event with an error frame whose event
// is the offending event's session-global index.
//
// Resume and rewind: a client whose connection broke reconnects with
// ?session=tok&resume=L and re-sends its events from line L. The
// daemon skips the first seq−L of them (exactly-once). A resume past
// the durable offset — the daemon lost an unsynced journal tail in a
// crash — is refused with an error frame that starts with
// CannotResumePrefix and whose event is the durable offset; the
// client rewinds to it and re-sends from there.
package stream

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"wlanmcast/internal/engine"
)

// Ack acknowledges one applied window.
type Ack struct {
	// Seq is the session-global offset past the window.
	Seq int `json:"seq"`
	// Applied/Redecisions/Moves are this window's costs.
	Applied     int `json:"applied"`
	Redecisions int `json:"redecisions"`
	Moves       int `json:"moves"`
}

// Done summarizes a cleanly finished stream.
type Done struct {
	Events      int     `json:"events"`
	Redecisions int     `json:"redecisions"`
	Moves       int     `json:"moves"`
	TotalLoad   float64 `json:"total_load"`
	MaxLoad     float64 `json:"max_load"`
}

// Session opens every response: the session's identity and durable
// offset, and how many re-sent leading lines will be skipped.
type Session struct {
	Token   string `json:"token"`
	Seq     uint64 `json:"seq"`
	Skipped uint64 `json:"skipped,omitempty"`
}

// Frame is one NDJSON response line: exactly one of session, ack,
// done, drain, or error is present.
type Frame struct {
	Session *Session `json:"session,omitempty"`
	Ack     *Ack     `json:"ack,omitempty"`
	Done    *Done    `json:"done,omitempty"`
	// Drain marks a server-initiated termination during graceful
	// shutdown: everything acked so far is durable; reconnect and
	// resume.
	Drain bool `json:"drain,omitempty"`
	// Event is the session-global index of the offending event on an
	// error frame.
	Event int    `json:"event,omitempty"`
	Error string `json:"error,omitempty"`
}

// CannotResumePrefix starts the error frame the daemon sends when a
// client asks to resume past the session's durable offset.
const CannotResumePrefix = "cannot resume from"

// ErrDrain ends an attempt on a drain frame.
var ErrDrain = errors.New("daemon draining for shutdown")

// CannotResume ends an attempt whose resume offset the daemon no
// longer holds. Seq is the durable offset the client rewound to.
type CannotResume struct {
	Seq int
	Msg string
}

func (e CannotResume) Error() string {
	return fmt.Sprintf("daemon rewound session to %d: %s", e.Seq, e.Msg)
}

// Rejected ends an attempt the daemon refused: an error frame at
// event Event, or a non-retryable HTTP status for the whole stream
// (Event is then the offset the attempt started from). Reconnecting
// would send the same events again, so Run gives up on it.
type Rejected struct {
	Event int
	Msg   string
}

func (e Rejected) Error() string {
	return fmt.Sprintf("daemon rejected stream at event %d: %s", e.Event, e.Msg)
}

// Reconnect backoff: doubles per failed attempt up to maxBackoff, and
// resets when an attempt moved the offset forward.
const initialBackoff, maxBackoff = 100 * time.Millisecond, 5 * time.Second

// Client streams one event trace into one session. Optional fields
// may be left zero.
type Client struct {
	Base   string  // the daemon's base URL (http://host:port)
	Window int     // the ack window, sent as ?window=
	Rate   float64 // writer pace in events/s; 0 = as fast as the connection takes them
	// Events is the trace. Offset, the next index to send, is the
	// number of events the daemon holds for this session as far as
	// the client knows.
	Events []engine.Event
	Offset int
	// Session is the token: empty lets the daemon mint one on the
	// first connection, and every session frame sets it.
	Session string
	OnAck   func(seq int)                    // if set, runs on every ack, after Offset moved to its seq
	Logf    func(format string, args ...any) // if set, reports each reconnect Run makes

	// Acks counts ack frames, Skipped the re-sent lines the daemon
	// discarded as already applied, and Reconnects the connections
	// Run opened beyond the first.
	Acks, Skipped, Reconnects int
}

// Attempt opens one connection offering Events[Offset:] and reads
// frames until the stream ends, advancing Offset from the session and
// ack frames. It returns the done frame, or an error that is one of:
// ErrDrain; CannotResume, with Offset already rewound; Rejected; or
// any other error for a broken or malformed connection, after which
// resuming from Offset is safe.
func (c *Client) Attempt() (*Done, error) {
	from, events, rate := c.Offset, c.Events, c.Rate
	pr, pw := io.Pipe()
	wrote := make(chan struct{})
	go func() { // the writer: events[from:] as NDJSON, paced when rate > 0
		defer close(wrote)
		enc, start := json.NewEncoder(pw), time.Now()
		for i := from; i < len(events); i++ {
			if rate > 0 {
				time.Sleep(time.Until(start.Add(time.Duration(float64(i-from) / rate * float64(time.Second)))))
			}
			if err := enc.Encode(events[i]); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.Close()
	}()
	// Closing the read side unblocks a writer mid-Encode when the
	// daemon ended the stream early.
	stopWriter := func() {
		pr.CloseWithError(io.ErrClosedPipe)
		<-wrote
	}

	u := c.Base + "/v1/events/stream?window=" + strconv.Itoa(c.Window)
	if c.Session != "" {
		u += "&session=" + url.QueryEscape(c.Session) + "&resume=" + strconv.Itoa(from)
	}
	req, err := http.NewRequest(http.MethodPost, u, pr)
	if err != nil {
		stopWriter()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		stopWriter()
		return nil, fmt.Errorf("open stream: %w", err)
	}
	defer resp.Body.Close()
	defer stopWriter()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		msg := resp.Status + ": " + strings.TrimSpace(string(raw))
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			return nil, fmt.Errorf("stream refused: %s", msg)
		}
		return nil, Rejected{Event: from, Msg: msg}
	}

	opened := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var f Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return nil, fmt.Errorf("bad frame %q: %v", sc.Text(), err)
		}
		switch {
		case f.Error != "":
			if strings.HasPrefix(f.Error, CannotResumePrefix) {
				c.Offset = f.Event
				return nil, CannotResume{Seq: f.Event, Msg: f.Error}
			}
			return nil, Rejected{Event: f.Event, Msg: f.Error}
		case f.Session != nil:
			opened = true
			c.Session = f.Session.Token
			c.Skipped += int(f.Session.Skipped)
			// The daemon applied past the last ack before the previous
			// connection died; it skips the overlap.
			c.Offset = max(c.Offset, int(f.Session.Seq))
		case !opened:
			return nil, fmt.Errorf("stream opened without a session frame: %q", sc.Text())
		case f.Ack != nil:
			c.Offset = f.Ack.Seq
			c.Acks++
			if c.OnAck != nil {
				c.OnAck(f.Ack.Seq)
			}
		case f.Done != nil:
			return f.Done, nil
		case f.Drain:
			return nil, ErrDrain
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read frames: %w", err)
	}
	return nil, errors.New("stream closed before the done frame")
}

// Run streams Events from Offset to the end. Each failed Attempt
// other than Rejected is followed by a reconnect, after a capped
// exponential backoff, at most maxReconnects times.
func (c *Client) Run(maxReconnects int) (*Done, error) {
	backoff := initialBackoff
	for {
		from := c.Offset
		done, err := c.Attempt()
		if err == nil {
			return done, nil
		}
		if errors.As(err, new(Rejected)) {
			return nil, err
		}
		if c.Reconnects >= maxReconnects {
			return nil, fmt.Errorf("stream failed after %d reconnects: %w", c.Reconnects, err)
		}
		if c.Offset > from {
			backoff = initialBackoff
		}
		c.Reconnects++
		if c.Logf != nil {
			c.Logf("stream interrupted at event %d/%d (%v); reconnect %d/%d in %v",
				c.Offset, len(c.Events), err, c.Reconnects, maxReconnects, backoff)
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, maxBackoff)
	}
}
