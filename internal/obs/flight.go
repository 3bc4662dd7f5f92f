package obs

import (
	"sort"
	"sync/atomic"
)

// FlightRecorder is a lock-free ring of the last N completed spans
// plus one "open span" slot per writer, built for post-mortem dumps:
// a snapshot shows both the recent history and the span each writer
// is inside right now.
//
// The write path is wait-free: a completed span takes a ring ticket
// with one atomic fetch-add, claims the ticket's slot with a
// compare-and-swap of the slot's seqlock version (odd while writing,
// even when stable) and publishes it; a span whose slot another writer
// lapping the ring holds or has already refilled is dropped, so two
// writers never interleave their stores in one slot. Begin/End publish
// the open span the same way into the writer's private slot.
// Snapshot never blocks writers — it rereads the version around each
// slot copy and discards torn reads. No allocation happens on the
// record path, so the engine keeps its <= 2 allocs/event gate with
// the recorder on.
//
// Stage and kind are recorded as small enums (indexes into the string
// tables given at construction) so a span fits in a handful of words.
type FlightRecorder struct {
	ring    []atomic.Uint64 // capacity * slotWords
	open    []atomic.Uint64 // writers * slotWords
	cursor  atomic.Uint64   // next ring ticket
	cap     int
	writers int
	stages  []string
	kinds   []string
}

// slotWords is the per-slot stride: version + 5 payload words, padded
// to 8 so adjacent slots written by different writers do not share a
// cache line.
const slotWords = 8

const (
	slotVersion = 0 // seqlock: 0 empty, odd writing, even stable
	slotMeta    = 1 // stage<<56 | kind<<48 | uint32(user)
	slotSeq     = 2 // event sequence number
	slotStart   = 3 // start, ns
	slotDur     = 4 // duration, ns
	slotWait    = 5 // queue wait, ns
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
	WaitNS  int64
}

// NewFlightRecorder returns a recorder holding the last spans
// completed spans (<= 0 selects DefaultFlightSpans) with one open
// slot per writer (writers < 1 is clamped to 1). The stages and
// kinds tables resolve SpanData enums in Snapshot; they are copied.
func NewFlightRecorder(spans, writers int, stages, kinds []string) *FlightRecorder {
	if spans <= 0 {
		spans = DefaultFlightSpans
	}
	if writers < 1 {
		writers = 1
	}
	return &FlightRecorder{
		ring:    make([]atomic.Uint64, spans*slotWords),
		open:    make([]atomic.Uint64, writers*slotWords),
		cap:     spans,
		writers: writers,
		stages:  append([]string(nil), stages...),
		kinds:   append([]string(nil), kinds...),
	}
}

func packMeta(d SpanData) uint64 {
	return uint64(d.Stage)<<56 | uint64(d.Kind)<<48 | uint64(uint32(d.User))
}

func unpackMeta(m uint64) (stage, kind uint8, user int32) {
	return uint8(m >> 56), uint8(m >> 48), int32(uint32(m))
}

// writeSlot publishes d into slot at base under the seqlock version v
// (which must be even and non-zero).
func writeSlot(slot []atomic.Uint64, v uint64, d SpanData) {
	slot[slotVersion].Store(v - 1) // odd: writing
	fillSlot(slot, v, d)
}

// fillSlot writes d into a slot its caller holds at the odd version
// v-1, then publishes it as v.
func fillSlot(slot []atomic.Uint64, v uint64, d SpanData) {
	slot[slotMeta].Store(packMeta(d))
	slot[slotSeq].Store(d.Seq)
	slot[slotStart].Store(uint64(d.StartNS))
	slot[slotDur].Store(uint64(d.DurNS))
	slot[slotWait].Store(uint64(d.WaitNS))
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
	d.WaitNS = int64(slot[slotWait].Load())
	if slot[slotVersion].Load() != v1 {
		return SpanData{}, 0, false
	}
	d.Stage, d.Kind, d.User = unpackMeta(m)
	return d, v1, true
}

// Record appends a completed span to the ring.
func (f *FlightRecorder) Record(d SpanData) {
	if f == nil {
		return
	}
	ticket := f.cursor.Add(1) - 1
	slot := f.ring[int(ticket%uint64(f.cap))*slotWords:][:slotWords]
	v := 2 * (ticket + 1)
	for {
		cur := slot[slotVersion].Load()
		if cur%2 == 1 || cur >= v {
			return // another writer holds the slot or has refilled it
		}
		if slot[slotVersion].CompareAndSwap(cur, v-1) {
			break
		}
	}
	fillSlot(slot, v, d)
}

// Begin publishes d as writer's in-flight span. It stays visible to
// Snapshot until End (or the next Begin) replaces it — this is what
// lets a dump say which event a stuck writer is holding.
func (f *FlightRecorder) Begin(writer int, d SpanData) {
	if f == nil {
		return
	}
	slot := f.open[writer*slotWords:]
	v := slot[slotVersion].Load()
	writeSlot(slot[:slotWords], v+2-v%2, d)
}

// End clears writer's in-flight span and appends d to the ring.
func (f *FlightRecorder) End(writer int, d SpanData) {
	if f == nil {
		return
	}
	slot := f.open[writer*slotWords:]
	v := slot[slotVersion].Load()
	slot[slotVersion].Store(v + 1 - v%2) // odd: no stable open span
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
	WaitNS  int64  `json:"wait_ns,omitempty"`
	Writer  int    `json:"writer,omitempty"` // open spans only
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
		WaitNS:  d.WaitNS,
	}
	if int(d.Stage) < len(f.stages) {
		s.Stage = f.stages[d.Stage]
	}
	if int(d.Kind) < len(f.kinds) {
		s.Kind = f.kinds[d.Kind]
	}
	return s
}

// Snapshot copies the recorder without blocking writers: completed
// spans oldest-first (torn or recycled slots are dropped), then the
// stable open span of each writer. Safe to call from any goroutine,
// including one racing the writers it is inspecting.
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
	for w := 0; w < f.writers; w++ {
		d, _, ok := readSlot(f.open[w*slotWords : w*slotWords+slotWords])
		if !ok {
			continue
		}
		s := f.resolve(d)
		s.Writer = w
		s.Open = true
		dump.Open = append(dump.Open, s)
	}
	return dump
}
