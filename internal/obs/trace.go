package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event is one structured trace record, emitted as a JSONL line. One
// flat struct serves every event type; the Type constant documents
// which fields are meaningful. Unset numeric fields are emitted as
// zero — consumers key off Type, never off field presence.
type Event struct {
	// Seq is the recorder-assigned sequence number (1-based, in
	// record order).
	Seq uint64 `json:"seq"`
	// Type is one of the Ev* constants.
	Type string `json:"type"`
	// Algo names the algorithm or subsystem ("MLA-distributed",
	// "mac", ...).
	Algo string `json:"algo,omitempty"`
	// Kind sub-types the event (churn event kind, frame kind, ...).
	Kind string `json:"kind,omitempty"`
	// User and AP identify the subject user/AP; -1 or 0 when not
	// applicable (see the Ev* docs).
	User int `json:"user"`
	AP   int `json:"ap"`
	// Round is the convergence round or iteration index.
	Round int `json:"round"`
	// Point and Seed locate a runner task on the sweep grid.
	Point int `json:"point"`
	Seed  int `json:"seed"`
	// N is a per-event count (moves in a round, redecisions of a
	// churn event, 1 for a collided frame, ...).
	N int `json:"n"`
	// Value is a per-event measure (seconds, load, B* guess, ...).
	Value float64 `json:"value"`
}

// Trace event types. The "meaningful fields" listed are in addition
// to Seq and Type.
const (
	// EvAlgoRun: one centralized algorithm run. Algo; N = greedy
	// iterations (picked sets / SCG passes); Value = objective
	// (total cost or covered users).
	EvAlgoRun = "algo_run"
	// EvGuess: one BLA B* guess. Algo; Value = B*; N = 1 when the
	// guess produced a complete cover, else 0.
	EvGuess = "bla_guess"
	// EvRound: one sequential distributed round. Algo; Round
	// (1-based); N = moves in the round.
	EvRound = "conv_round"
	// EvHandoff: one association change. User; AP = new AP.
	EvHandoff = "handoff"
	// EvChurn: one applied churn event. Kind; User; N = repair
	// re-decisions it triggered (most of which change nothing — a
	// per-re-decision event would be ~10x the handoff volume for no
	// added information, so the count rides here); Value = elapsed
	// seconds.
	EvChurn = "churn_event"
	// EvAPLoad: one per-AP load sample. AP; Value = load.
	EvAPLoad = "ap_load"
	// EvMacTx: one simulated frame transmission. AP; Kind
	// ("multicast"/"unicast"); N = 1 when collided; Value = channel
	// seconds charged.
	EvMacTx = "mac_tx"
	// EvRunnerTask: one completed sweep task. Point; Seed; Value =
	// evaluation seconds; N = queue wait in microseconds.
	EvRunnerTask = "runner_task"
	// EvSpan: one completed pipeline stage span. Algo = subsystem
	// ("engine"); Kind = stage name ("validate", "reduce", ...);
	// N = events the stage covered; Value = elapsed seconds.
	// Per-event apply spans do NOT ride the trace (EvChurn already
	// carries kind/user/elapsed per event) — trace spans are
	// batch-granular.
	EvSpan = "span"
)

// Span is an in-progress trace span: StartSpan captures the template
// event and start time, End stamps the elapsed seconds into Value and
// records it. Timestamps are caller-supplied nanoseconds so engines
// with injected clocks produce deterministic traces. The zero Span is
// inert; End on it is a no-op.
type Span struct {
	rec     Recorder
	ev      Event
	startNS int64
}

// StartSpan opens a span that will be recorded to rec. The ev
// argument carries everything but Type (forced to EvSpan) and Value
// (set by End). When rec is nil or disabled the returned span is
// inert, so callers need no guard around the pair.
func StartSpan(rec Recorder, ev Event, startNS int64) Span {
	if !Active(rec) {
		return Span{}
	}
	return Span{rec: rec, ev: ev, startNS: startNS}
}

// End records the span with Value = elapsed seconds.
func (s Span) End(endNS int64) {
	if s.rec == nil {
		return
	}
	s.ev.Type = EvSpan
	s.ev.Value = float64(endNS-s.startNS) / 1e9
	s.rec.Record(s.ev)
}

// Recorder is a trace sink. Implementations must be safe for
// concurrent use and assign Event.Seq themselves.
type Recorder interface {
	Record(Event)
	// Enabled reports whether recording does anything; hot paths
	// check it (via Active) before building an Event.
	Enabled() bool
}

// Active reports whether rec is non-nil and enabled — the guard
// instrumented code puts in front of Record calls.
func Active(rec Recorder) bool { return rec != nil && rec.Enabled() }

// Disabled is the no-op Recorder: Enabled() is false and Record does
// nothing. It benchmarks the floor of instrumentation cost.
var Disabled Recorder = disabled{}

type disabled struct{}

func (disabled) Record(Event)  {}
func (disabled) Enabled() bool { return false }

// Ring is a fixed-capacity in-memory Recorder: the newest events are
// kept, the oldest evicted. The assocd daemon holds one and serves
// it on /v1/trace/export.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest event
	n       int // events in buf
	total   uint64
	dropped uint64
	counts  map[string]uint64
}

// DefaultRingCapacity is the assocd daemon's trace buffer size.
const DefaultRingCapacity = 16384

// NewRing returns a ring holding the most recent capacity events
// (<= 0 selects DefaultRingCapacity).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{buf: make([]Event, capacity), counts: make(map[string]uint64)}
}

// Enabled implements Recorder.
func (r *Ring) Enabled() bool { return true }

// Record implements Recorder.
func (r *Ring) Record(ev Event) {
	r.mu.Lock()
	r.total++
	ev.Seq = r.total
	r.counts[ev.Type]++
	if r.n == len(r.buf) {
		r.buf[r.start] = ev
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	} else {
		r.buf[(r.start+r.n)%len(r.buf)] = ev
		r.n++
	}
	r.mu.Unlock()
}

// Total returns how many events were ever recorded.
func (r *Ring) Total() uint64 { r.mu.Lock(); defer r.mu.Unlock(); return r.total }

// Dropped returns how many events were evicted.
func (r *Ring) Dropped() uint64 { r.mu.Lock(); defer r.mu.Unlock(); return r.dropped }

// Len returns how many events are currently buffered.
func (r *Ring) Len() int { r.mu.Lock(); defer r.mu.Unlock(); return r.n }

// CountsByType returns a copy of the per-type record counts (counting
// evicted events too).
func (r *Ring) CountsByType() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// Snapshot returns the buffered events oldest-first.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// WriteJSONL writes the buffered events oldest-first, one JSON object
// per line.
func (r *Ring) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range r.Snapshot() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// JSONL streams events to a writer as JSONL, buffered. The
// experiments CLI points one at -trace FILE.
type JSONL struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	seq uint64
	err error
}

// NewJSONL wraps w. Call Flush (or Close on the underlying file)
// when done; the first write error is sticky and reported by Err.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw)}
}

// Enabled implements Recorder.
func (j *JSONL) Enabled() bool { return true }

// Record implements Recorder.
func (j *JSONL) Record(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.seq++
	ev.Seq = j.seq
	j.err = j.enc.Encode(ev)
}

// Flush flushes the buffer and returns the sticky error, if any.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.bw.Flush()
	return j.err
}

// Err returns the first write error.
func (j *JSONL) Err() error { j.mu.Lock(); defer j.mu.Unlock(); return j.err }

// Sampler forwards every n-th event of each type to the inner
// recorder (the 1st, n+1th, ... — deterministic, so sampled traces
// of deterministic runs are themselves deterministic). n <= 1
// forwards everything.
type Sampler struct {
	n     uint64
	inner Recorder

	mu   sync.Mutex
	seen map[string]uint64
}

// NewSampler wraps inner with 1-in-n per-type sampling.
func NewSampler(n int, inner Recorder) *Sampler {
	if n < 1 {
		n = 1
	}
	return &Sampler{n: uint64(n), inner: inner, seen: make(map[string]uint64)}
}

// Enabled implements Recorder.
func (s *Sampler) Enabled() bool { return Active(s.inner) }

// Record implements Recorder.
func (s *Sampler) Record(ev Event) {
	s.mu.Lock()
	k := s.seen[ev.Type]
	s.seen[ev.Type] = k + 1
	s.mu.Unlock()
	if k%s.n == 0 {
		s.inner.Record(ev)
	}
}

// ReadJSONL parses a JSONL event stream (as written by Ring or
// JSONL), returning the events in order.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
