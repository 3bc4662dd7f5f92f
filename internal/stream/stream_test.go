package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wlanmcast/internal/engine"
)

// TestFrameBytes pins the wire bytes of every frame kind, as the
// daemon's json.Encoder writes them, against literals captured before
// the frame types moved into this package.
func TestFrameBytes(t *testing.T) {
	cases := []struct {
		f    Frame
		want string
	}{
		{Frame{Session: &Session{Token: "ab12", Seq: 4096, Skipped: 1024}}, `{"session":{"token":"ab12","seq":4096,"skipped":1024}}`},
		{Frame{Session: &Session{Token: "tok", Seq: 0}}, `{"session":{"token":"tok","seq":0}}`},
		{Frame{Ack: &Ack{Seq: 2048, Applied: 512, Redecisions: 63, Moves: 12}}, `{"ack":{"seq":2048,"applied":512,"redecisions":63,"moves":12}}`},
		{Frame{Ack: &Ack{}}, `{"ack":{"seq":0,"applied":0,"redecisions":0,"moves":0}}`},
		{Frame{Done: &Done{Events: 100000, Redecisions: 12040, Moves: 3011, TotalLoad: 12.5, MaxLoad: 0.71}}, `{"done":{"events":100000,"redecisions":12040,"moves":3011,"total_load":12.5,"max_load":0.71}}`},
		{Frame{Done: &Done{}}, `{"done":{"events":0,"redecisions":0,"moves":0,"total_load":0,"max_load":0}}`},
		{Frame{Drain: true}, `{"drain":true}`},
		{Frame{Event: 731, Error: `event 731: engine: invalid "join" event: user 9 is already active (219 applied)`}, `{"event":731,"error":"event 731: engine: invalid \"join\" event: user 9 is already active (219 applied)"}`},
		{Frame{Event: 0, Error: "event 0: decode: <bad> & more"}, `{"error":"event 0: decode: \u003cbad\u003e \u0026 more"}`},
		{Frame{Event: 12, Error: fmt.Sprintf("%s %d: session %q is durable to %d", CannotResumePrefix, 40, "s-1", 12)}, `{"event":12,"error":"cannot resume from 40: session \"s-1\" is durable to 12"}`},
	}
	for _, c := range cases {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(c.f); err != nil {
			t.Fatal(err)
		}
		if got := b.String(); got != c.want+"\n" {
			t.Errorf("frame bytes\n got %s\nwant %s", got, c.want)
		}
	}
}

// scripted serves one response per connection: the status, then the
// frames as NDJSON. It reads the request body to EOF first, as the
// daemon does before it ends a stream.
func scripted(t *testing.T, status int, frames ...string) (*httptest.Server, *[]string) {
	var urls []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		urls = append(urls, r.URL.RequestURI())
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(status)
		for _, f := range frames {
			io.WriteString(w, f+"\n")
		}
	}))
	t.Cleanup(ts.Close)
	return ts, &urls
}

func trace(n int) []engine.Event {
	events := make([]engine.Event, n)
	for i := range events {
		events[i] = engine.Event{Kind: engine.UserLeave, User: i}
	}
	return events
}

// TestAttemptOutcomes checks each way one attempt ends, the offset it
// leaves behind and the request it made.
func TestAttemptOutcomes(t *testing.T) {
	session := `{"session":{"token":"tok","seq":4,"skipped":1}}`
	cases := []struct {
		name   string
		status int
		frames []string
		check  func(error) bool
		offset int
	}{
		{"done", 200, []string{session, `{"ack":{"seq":8,"applied":4}}`, `{"ack":{"seq":10,"applied":2}}`, `{"done":{"events":6}}`},
			func(err error) bool { return err == nil }, 10},
		{"drain", 200, []string{session, `{"ack":{"seq":8,"applied":4}}`, `{"drain":true}`},
			func(err error) bool { return errors.Is(err, ErrDrain) }, 8},
		{"cannot resume", 200, []string{`{"session":{"token":"tok","seq":2}}`, `{"event":2,"error":"cannot resume from 3: session \"tok\" is durable to 2"}`},
			func(err error) bool { return errors.As(err, new(CannotResume)) }, 2},
		{"rejected", 200, []string{session, `{"event":6,"error":"event 6: decode: bad"}`},
			func(err error) bool { r := new(Rejected); return errors.As(err, r) && r.Event == 6 }, 4},
		{"refused", 409, []string{`no scenario loaded`},
			func(err error) bool { r := new(Rejected); return errors.As(err, r) && r.Event == 3 }, 3},
		{"busy", 429, []string{`another event stream is active`},
			func(err error) bool { return err != nil && !errors.As(err, new(Rejected)) }, 3},
		{"no session frame", 200, []string{`{"ack":{"seq":8,"applied":4}}`, `{"done":{"events":4}}`},
			func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "without a session frame") && !errors.As(err, new(Rejected))
			}, 3},
		{"cut short", 200, []string{session},
			func(err error) bool { return err != nil && !errors.As(err, new(Rejected)) }, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts, urls := scripted(t, c.status, c.frames...)
			var acks []int
			cl := &Client{Base: ts.URL, Window: 4, Events: trace(10), Offset: 3, Session: "tok",
				OnAck: func(seq int) { acks = append(acks, seq) }}
			done, err := cl.Attempt()
			if !c.check(err) {
				t.Fatalf("err = %v", err)
			}
			if (err == nil) != (done != nil) {
				t.Fatalf("done frame %v with err %v", done, err)
			}
			if cl.Offset != c.offset {
				t.Errorf("offset = %d, want %d", cl.Offset, c.offset)
			}
			if len(acks) != cl.Acks {
				t.Errorf("OnAck ran %d times for %d acks", len(acks), cl.Acks)
			}
			if want := "/v1/events/stream?window=4&session=tok&resume=3"; (*urls)[0] != want {
				t.Errorf("request %s, want %s", (*urls)[0], want)
			}
		})
	}
}

// TestRunStopsOnRejected: a rejection is final, so Run makes no
// reconnect and returns it as is.
func TestRunStopsOnRejected(t *testing.T) {
	ts, urls := scripted(t, 200, `{"session":{"token":"x","seq":0}}`, `{"event":0,"error":"event 0: decode: bad"}`)
	cl := &Client{Base: ts.URL, Window: 4, Events: trace(3)}
	if _, err := cl.Run(5); !errors.As(err, new(Rejected)) {
		t.Fatalf("err = %v, want Rejected", err)
	}
	if len(*urls) != 1 || cl.Reconnects != 0 {
		t.Fatalf("%d connections, %d reconnects; want 1 and 0", len(*urls), cl.Reconnects)
	}
	if (*urls)[0] != "/v1/events/stream?window=4" {
		t.Errorf("first connection without a token sent %s", (*urls)[0])
	}
	if cl.Session != "x" {
		t.Errorf("session = %q, want the daemon's token", cl.Session)
	}
}
