package obs

import (
	"sort"
	"sync/atomic"
)

// FlightRecorder is a ring of the last N completed spans plus one
// "open span" slot, built for post-mortem dumps: a snapshot shows both
// the recent history and the span being applied right now.
//
// It has one writer (the goroutine running the engine call) and any
// number of concurrent readers. Each slot is a seqlock: the writer
// marks the version odd, fills the payload and publishes an even
// version; Snapshot never blocks the writer — it rereads the version
// around each slot copy and discards torn reads. No allocation happens
// on the record path, so the engine keeps its <= 2 allocs/event gate
// with the recorder on.
//
// Stage and kind are recorded as small enums (indexes into the string
// tables given at construction) so a span fits in a handful of words.
type FlightRecorder struct {
	ring   []atomic.Uint64          // capacity * slotWords
	open   [slotWords]atomic.Uint64 // the in-flight span
	cursor atomic.Uint64            // spans ever recorded
	cap    int
	stages []string
	kinds  []string
}

// slotWords is the per-slot stride: version + 4 payload words.
const slotWords = 5

const (
	slotVersion = 0 // seqlock: 0 empty, odd writing, even stable
	slotMeta    = 1 // stage<<56 | kind<<48 | uint32(user)
	slotSeq     = 2 // event sequence number
	slotStart   = 3 // start, ns
	slotDur     = 4 // duration, ns
)

// DefaultFlightSpans is the span capacity engines use when the caller
// does not pick one.
const DefaultFlightSpans = 4096

// SpanData is the payload of one flight-recorder span. Stage and Kind
// index the recorder's string tables; User is clamped to 32 bits on
// the wire (user ids are int32 throughout the engine).
type SpanData struct {
	Stage   uint8
	Kind    uint8
	User    int32
	Seq     uint64
	StartNS int64
	DurNS   int64
}

// NewFlightRecorder returns a recorder holding the last spans
// completed spans (<= 0 selects DefaultFlightSpans). The stages and
// kinds tables resolve SpanData enums in Snapshot; they are copied.
func NewFlightRecorder(spans int, stages, kinds []string) *FlightRecorder {
	if spans <= 0 {
		spans = DefaultFlightSpans
	}
	return &FlightRecorder{
		ring:   make([]atomic.Uint64, spans*slotWords),
		cap:    spans,
		stages: append([]string(nil), stages...),
		kinds:  append([]string(nil), kinds...),
	}
}

func packMeta(d SpanData) uint64 {
	return uint64(d.Stage)<<56 | uint64(d.Kind)<<48 | uint64(uint32(d.User))
}

func unpackMeta(m uint64) (stage, kind uint8, user int32) {
	return uint8(m >> 56), uint8(m >> 48), int32(uint32(m))
}

// writeSlot publishes d into slot under the seqlock version v (even
// and non-zero): odd version, fill, even version.
func writeSlot(slot []atomic.Uint64, v uint64, d SpanData) {
	slot[slotVersion].Store(v - 1) // odd: writing
	slot[slotMeta].Store(packMeta(d))
	slot[slotSeq].Store(d.Seq)
	slot[slotStart].Store(uint64(d.StartNS))
	slot[slotDur].Store(uint64(d.DurNS))
	slot[slotVersion].Store(v) // even: stable
}

// readSlot copies a slot if it is stable, reporting the version it
// was stable at. ok is false for empty or torn slots.
func readSlot(slot []atomic.Uint64) (d SpanData, version uint64, ok bool) {
	v1 := slot[slotVersion].Load()
	if v1 == 0 || v1%2 == 1 {
		return SpanData{}, 0, false
	}
	m := slot[slotMeta].Load()
	d.Seq = slot[slotSeq].Load()
	d.StartNS = int64(slot[slotStart].Load())
	d.DurNS = int64(slot[slotDur].Load())
	if slot[slotVersion].Load() != v1 {
		return SpanData{}, 0, false
	}
	d.Stage, d.Kind, d.User = unpackMeta(m)
	return d, v1, true
}

// Record appends a completed span to the ring. The span's ticket is
// its position in the recording order; the slot's version encodes it,
// so Snapshot can order the ring without a separate counter per slot.
func (f *FlightRecorder) Record(d SpanData) {
	if f == nil {
		return
	}
	ticket := f.cursor.Load()
	writeSlot(f.ring[int(ticket%uint64(f.cap))*slotWords:][:slotWords], 2*(ticket+1), d)
	f.cursor.Store(ticket + 1)
}

// Begin publishes d as the in-flight span. It stays visible to
// Snapshot until End (or the next Begin) replaces it — this is what
// lets a dump say which event a stuck call is holding.
func (f *FlightRecorder) Begin(d SpanData) {
	if f == nil {
		return
	}
	v := f.open[slotVersion].Load()
	writeSlot(f.open[:], v+2-v%2, d)
}

// End clears the in-flight span and appends d to the ring.
func (f *FlightRecorder) End(d SpanData) {
	if f == nil {
		return
	}
	v := f.open[slotVersion].Load()
	f.open[slotVersion].Store(v + 1 - v%2) // odd: no stable open span
	f.Record(d)
}

// Total returns how many spans were ever recorded.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.cursor.Load()
}

// Capacity returns the ring size.
func (f *FlightRecorder) Capacity() int {
	if f == nil {
		return 0
	}
	return f.cap
}

// FlightSpan is one resolved span in a flight-recorder snapshot.
type FlightSpan struct {
	Seq     uint64 `json:"seq"`
	Stage   string `json:"stage"`
	Kind    string `json:"kind,omitempty"`
	User    int    `json:"user"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Open    bool   `json:"open,omitempty"`
}

// FlightDump is a point-in-time copy of a flight recorder.
type FlightDump struct {
	Total    uint64       `json:"total"`    // spans ever recorded
	Capacity int          `json:"capacity"` // ring size
	Spans    []FlightSpan `json:"spans"`    // completed, oldest-first
	Open     []FlightSpan `json:"open,omitempty"`
}

func (f *FlightRecorder) resolve(d SpanData) FlightSpan {
	s := FlightSpan{
		Seq:     d.Seq,
		User:    int(d.User),
		StartNS: d.StartNS,
		DurNS:   d.DurNS,
	}
	if int(d.Stage) < len(f.stages) {
		s.Stage = f.stages[d.Stage]
	}
	if int(d.Kind) < len(f.kinds) {
		s.Kind = f.kinds[d.Kind]
	}
	return s
}

// Snapshot copies the recorder without blocking the writer: completed
// spans oldest-first (torn or recycled slots are dropped), then the
// stable open span, if any. Safe to call from any goroutine,
// including one racing the writer it is inspecting.
func (f *FlightRecorder) Snapshot() FlightDump {
	if f == nil {
		return FlightDump{}
	}
	dump := FlightDump{Capacity: f.cap, Total: f.cursor.Load()}
	type numbered struct {
		span   FlightSpan
		ticket uint64
	}
	spans := make([]numbered, 0, f.cap)
	for i := 0; i < f.cap; i++ {
		d, v, ok := readSlot(f.ring[i*slotWords : i*slotWords+slotWords])
		if !ok {
			continue
		}
		spans = append(spans, numbered{span: f.resolve(d), ticket: v/2 - 1})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].ticket < spans[j].ticket })
	dump.Spans = make([]FlightSpan, len(spans))
	for i, s := range spans {
		dump.Spans[i] = s.span
	}
	if d, _, ok := readSlot(f.open[:]); ok {
		s := f.resolve(d)
		s.Open = true
		dump.Open = append(dump.Open, s)
	}
	return dump
}
