package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/wlan"
)

// Snapshot encodings. EncodeSnapshot writes version 3, a compact
// binary layout (all integers unsigned varints, minimally encoded):
//
//	"WLMS" 0x03                       magic, then the version byte
//	active                            active-user count
//	per active user, ascending by id:
//	  id - previous id (previous = -1 before the first)
//	  X, Y                            raw little-endian float64 bits; geometric networks only
//	  session
//	  AP + 1                          0 = wlan.Unassociated
//	  k, then k secondary APs         ascending, primary excluded (k = 0 while MaxHomes <= 1)
//	d, then d down APs                ascending
//	Joins Leaves UserMoves DemandChanges APDowns APUps
//	Orphaned Rejected Redecisions Handoffs Truncated
//
// with nothing after it. Versions 1 and 2 were JSON objects
// (snapState's tags) and are still read, never written; a blob whose
// first byte is '{' takes that path. Version 1 also carried the per-AP
// loads; they are exact functions of the association, so they are
// ignored.
const (
	snapshotVersion = 3
	snapMagic       = "WLMS\x03" // ends in snapshotVersion
)

// snapUser is one active user slot's full mutable state: where it is,
// what it subscribes to, and where it is associated.
type snapUser struct {
	U       int     `json:"u"`
	X       float64 `json:"x,omitempty"`
	Y       float64 `json:"y,omitempty"`
	Session int     `json:"session"`
	AP      int     `json:"ap"` // wlan.Unassociated when orphaned
	// Sec is the derived secondary-home set (multihome.go), sorted
	// ascending, primary excluded. Always empty with MaxHomes <= 1.
	Sec []int `json:"sec,omitempty"`
}

// snapCounters mirrors Stats' counter fields (the latency histogram
// is wall-clock, so it is deliberately not part of persisted state).
type snapCounters struct {
	Joins, Leaves, UserMoves, DemandChanges uint64
	APDowns, APUps                          uint64
	Orphaned, Rejected                      uint64
	Redecisions, Handoffs, Truncated        uint64
}

// fields lists c's counters in their persisted order.
func (c *snapCounters) fields() [11]*uint64 {
	return [...]*uint64{&c.Joins, &c.Leaves, &c.UserMoves, &c.DemandChanges, &c.APDowns, &c.APUps,
		&c.Orphaned, &c.Rejected, &c.Redecisions, &c.Handoffs, &c.Truncated}
}

// snapState is the engine's complete persisted state relative to the
// scenario that built the network: everything churn events can have
// mutated since New. The network's immutable layout (AP positions,
// rate model, budgets) is NOT here — recovery rebuilds it from the
// journaled scenario and this delta re-applies the churn outcome.
// Both decoders produce one; restore validates and applies it.
type snapState struct {
	Version int          `json:"version"`
	Users   []snapUser   `json:"users"` // active slots, ascending by id
	DownAPs []int        `json:"down_aps,omitempty"`
	Stats   snapCounters `json:"stats"`
}

// EncodeSnapshot serializes the engine's full mutable state —
// active users (position, session, association), down APs, and the
// cumulative counters — deterministically: identical engine states
// produce identical bytes, which is what lets the
// crash harness compare a recovered daemon against an uninterrupted
// one byte-for-byte. The result is sized up front, so the number of
// allocations does not grow with the state.
func (e *Engine) EncodeSnapshot() ([]byte, error) {
	n := e.n
	geometric := n.Geometric()
	perUser := uvarintLen(uint64(n.NumUsers())) + uvarintLen(uint64(n.NumSessions())) +
		2*uvarintLen(uint64(n.NumAPs())) // AP + 1, secondary count
	if geometric {
		perUser += 16
	}
	// The fixed part: magic, the active and down counts and the eleven
	// counters.
	size := len(snapMagic) + binary.MaxVarintLen64*13 +
		e.nActive*perUser + n.NumAPsDown()*uvarintLen(uint64(n.NumAPs()))
	if e.multihomeOn() {
		size += e.mh.NumHomes() * uvarintLen(uint64(n.NumAPs()))
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, uint64(e.nActive))
	prev := -1
	for u := 0; u < n.NumUsers(); u++ {
		if !e.active[u] {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(u-prev))
		prev = u
		if geometric {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.Users[u].Pos.X))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.Users[u].Pos.Y))
		}
		buf = binary.AppendUvarint(buf, uint64(n.Users[u].Session))
		buf = binary.AppendUvarint(buf, uint64(e.tr.APOf(u)+1))
		if !e.multihomeOn() {
			buf = append(buf, 0)
			continue
		}
		homes, prim := e.mh.Homes(u), e.mhPrim[u]
		k := len(homes)
		for _, ap := range homes {
			if ap == prim {
				k--
			}
		}
		buf = binary.AppendUvarint(buf, uint64(k))
		for _, ap := range homes {
			if ap != prim {
				buf = binary.AppendUvarint(buf, uint64(ap))
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n.NumAPsDown()))
	for a := 0; a < n.NumAPs() && n.NumAPsDown() > 0; a++ {
		if n.APDown(a) {
			buf = binary.AppendUvarint(buf, uint64(a))
		}
	}
	stats := e.metrics.snapshot()
	c := stats.counters()
	for _, p := range c.fields() {
		buf = binary.AppendUvarint(buf, *p)
	}
	return buf, nil
}

// uvarintLen is the length of v's unsigned varint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// RestoreSnapshot rebuilds an engine over a freshly constructed n
// (same scenario, same layout as the engine that called
// EncodeSnapshot) so that it is behaviorally indistinguishable from
// the original: the same events applied to both afterwards yield
// byte-identical snapshots, loads, and stats.
// cfg must match the original engine's config (the daemon journals
// the scenario request and rebuilds both from it). No distributed
// seeding run happens — the association comes from the snapshot.
// It reads version 3 and the JSON versions 1 and 2, and refuses
// anything else, including trailing bytes after a valid snapshot.
func RestoreSnapshot(n *wlan.Network, cfg Config, data []byte) (*Engine, error) {
	var (
		st  snapState
		err error
	)
	if len(data) > 0 && data[0] == '{' {
		st, err = decodeSnapshotJSON(data)
	} else {
		st, err = decodeSnapshot(n, data)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: decode snapshot: %w", err)
	}
	return restore(n, cfg, &st)
}

// decodeSnapshotJSON reads a version-1 or version-2 JSON snapshot.
func decodeSnapshotJSON(data []byte) (snapState, error) {
	var st snapState
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&st); err != nil {
		return st, err
	}
	if dec.InputOffset() != int64(len(data)) {
		return st, errors.New("trailing bytes after the JSON object")
	}
	if st.Version != 1 && st.Version != 2 {
		return st, fmt.Errorf("snapshot version %d, want 1, 2 or %d", st.Version, snapshotVersion)
	}
	return st, nil
}

// decodeSnapshot reads a version-3 binary snapshot for network n. It
// bounds every read and count by the bytes left, so no input makes it
// allocate more than the blob could describe; restore checks the
// values.
func decodeSnapshot(n *wlan.Network, data []byte) (snapState, error) {
	var st snapState
	rest, ok := bytes.CutPrefix(data, []byte(snapMagic))
	if !ok {
		return st, fmt.Errorf("not a JSON or version-%d snapshot (bad magic)", snapshotVersion)
	}
	r := snapReader{b: rest}
	geometric := n.Geometric()
	st.Users = make([]snapUser, 0, r.count(n.NumUsers()))
	prev := -1
	for i := cap(st.Users); i > 0 && r.err == nil; i-- {
		su := snapUser{U: prev + r.int()}
		prev = su.U
		if geometric {
			su.X, su.Y = r.float(), r.float()
		}
		su.Session = r.int()
		su.AP = r.int() - 1
		su.Sec = make([]int, r.count(len(r.b)))
		for j := range su.Sec {
			su.Sec[j] = r.int()
		}
		st.Users = append(st.Users, su)
	}
	st.DownAPs = make([]int, r.count(n.NumAPs()))
	for i := range st.DownAPs {
		st.DownAPs[i] = r.int()
	}
	for _, p := range st.Stats.fields() {
		*p = r.uvarint()
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return st, r.err
}

// snapReader reads a binary snapshot front to back. The first
// failure sticks: later reads return zero and decodeSnapshot reports
// it once.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at %d bytes from the end", what, len(r.b))
	}
}

// uvarint reads one minimally encoded varint; a padded encoding is
// refused so that every accepted blob re-encodes to its own bytes.
func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail("malformed varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a varint that must fit an int32, so sums of two stay in
// range; restore checks it against the network.
func (r *snapReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail("value out of range")
		return 0
	}
	return int(v)
}

// count reads an element count of at most max, and no more than the
// bytes left (every element takes at least one).
func (r *snapReader) count(max int) int {
	v := r.int()
	if v > max || v > len(r.b) {
		r.fail(fmt.Sprintf("count %d exceeds its bound", v))
		return 0
	}
	return v
}

func (r *snapReader) float() float64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// restore validates a decoded snapshot against n and cfg and builds
// the engine it describes. Every check a snapshot must pass is here,
// whatever its encoding.
func restore(n *wlan.Network, cfg Config, st *snapState) (*Engine, error) {
	e, err := newShell(n, cfg)
	if err != nil {
		return nil, err
	}
	geometric := n.Geometric()
	assoc := wlan.NewAssoc(n.NumUsers())
	var prevSec [][]int
	prev := -1
	for _, su := range st.Users {
		if su.U <= prev || su.U >= n.NumUsers() {
			return nil, fmt.Errorf("engine: snapshot user %d out of order or range (prev %d, slots %d)", su.U, prev, n.NumUsers())
		}
		prev = su.U
		if err := n.SetUserSession(su.U, su.Session); err != nil {
			return nil, fmt.Errorf("engine: restore user %d: %w", su.U, err)
		}
		if geometric {
			if !finite(su.X) || !finite(su.Y) {
				return nil, fmt.Errorf("engine: snapshot user %d at non-finite position (%v, %v)", su.U, su.X, su.Y)
			}
			if err := n.MoveUser(su.U, geom.Point{X: su.X, Y: su.Y}); err != nil {
				return nil, fmt.Errorf("engine: restore user %d: %w", su.U, err)
			}
		}
		e.active[su.U] = true
		if su.AP != wlan.Unassociated {
			if su.AP < 0 || su.AP >= n.NumAPs() {
				return nil, fmt.Errorf("engine: snapshot user %d on AP %d out of range", su.U, su.AP)
			}
			assoc.Associate(su.U, su.AP)
		}
		if len(su.Sec) > 0 {
			if len(su.Sec) >= e.MaxHomes() {
				return nil, fmt.Errorf("engine: snapshot user %d carries %d secondary homes but MaxHomes is %d", su.U, len(su.Sec), cfg.MaxHomes)
			}
			for i, ap := range su.Sec {
				if ap < 0 || ap >= n.NumAPs() || (i > 0 && su.Sec[i-1] >= ap) {
					return nil, fmt.Errorf("engine: snapshot user %d secondary homes %v malformed", su.U, su.Sec)
				}
			}
			if prevSec == nil {
				prevSec = make([][]int, n.NumUsers())
			}
			prevSec[su.U] = su.Sec
		}
	}
	e.nActive = len(st.Users)
	for u := 0; u < n.NumUsers(); u++ {
		if !e.active[u] {
			if err := n.DetachUser(u); err != nil {
				return nil, err
			}
		}
	}
	for i, a := range st.DownAPs {
		if i > 0 && st.DownAPs[i-1] >= a {
			return nil, fmt.Errorf("engine: snapshot down APs %v not ascending", st.DownAPs)
		}
		if err := n.DisableAP(a); err != nil {
			return nil, fmt.Errorf("engine: restore ap %d down: %w", a, err)
		}
	}
	// finish seeds the trackers by re-associating; their loads are exact
	// functions of the association, so they equal the original's bits.
	if err := e.finish(assoc, prevSec); err != nil {
		return nil, err
	}
	// Re-deriving a live engine's persisted homes is a fixed point
	// (multihome.go), so a snapshot whose homes the derivation does
	// not reproduce was not written by one.
	for _, su := range st.Users {
		if derived := e.secondaryOf(su.U); !slices.Equal(derived, su.Sec) {
			return nil, fmt.Errorf("engine: snapshot user %d secondary homes %v are not the derived %v", su.U, su.Sec, derived)
		}
	}
	e.metrics.restore(st.Stats)
	return e, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// counters returns s's cumulative counters, the part of Stats a
// snapshot persists.
func (s *Stats) counters() snapCounters {
	return snapCounters{
		Joins: s.Joins, Leaves: s.Leaves, UserMoves: s.UserMoves,
		DemandChanges: s.DemandChanges, APDowns: s.APDowns, APUps: s.APUps,
		Orphaned: s.Orphaned, Rejected: s.Rejected,
		Redecisions: s.Redecisions, Handoffs: s.Handoffs, Truncated: s.Truncated,
	}
}

// restore pre-loads the cumulative counters from a snapshot, so a
// recovered engine's Stats continue where the crashed one's left off
// (replayed journal records then re-increment on top, which is why
// the daemon snapshots stats as-of the snapshot seq, not as-of crash).
func (m *metrics) restore(s snapCounters) {
	// The per-kind counts, in eventKinds order.
	for i, v := range [...]uint64{s.Joins, s.Leaves, s.UserMoves, s.DemandChanges, s.APDowns, s.APUps} {
		m.events[i].Add(v)
	}
	m.orphaned.Add(s.Orphaned)
	m.rejected.Add(s.Rejected)
	m.redecisions.Add(s.Redecisions)
	m.handoffs.Add(s.Handoffs)
	m.truncated.Add(s.Truncated)
}
