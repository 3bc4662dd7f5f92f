package engine

import (
	"encoding/json"
	"fmt"
	"sort"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/wlan"
)

// snapshotVersion guards the persisted encoding. Bump it on any shape
// change; RestoreSnapshot refuses versions it cannot read rather than
// guessing. Version 1 also carried the per-AP loads; they are exact
// functions of the association now, so RestoreSnapshot still reads a
// version-1 blob and ignores them.
const snapshotVersion = 2

// snapUser is one active user slot's full mutable state: where it is,
// what it subscribes to, and where it is associated.
type snapUser struct {
	U       int     `json:"u"`
	X       float64 `json:"x,omitempty"`
	Y       float64 `json:"y,omitempty"`
	Session int     `json:"session"`
	AP      int     `json:"ap"` // wlan.Unassociated when orphaned
	// Sec is the derived secondary-home set (multihome.go), sorted
	// ascending, primary excluded. Always empty with MaxHomes <= 1,
	// so pre-multi-homing snapshots and configurations keep their
	// exact historical bytes (the field is additive — no version
	// bump).
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

// snapState is the engine's complete persisted state relative to the
// scenario that built the network: everything churn events can have
// mutated since New. The network's immutable layout (AP positions,
// rate model, budgets) is NOT here — recovery rebuilds it from the
// journaled scenario and this delta re-applies the churn outcome.
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
// one byte-for-byte.
func (e *Engine) EncodeSnapshot() ([]byte, error) {
	st := snapState{Version: snapshotVersion}
	assoc := e.Snapshot()
	geometric := e.n.Geometric()
	for u := 0; u < e.n.NumUsers(); u++ {
		if !e.active[u] {
			continue
		}
		su := snapUser{U: u, Session: e.n.Users[u].Session, AP: assoc.APOf(u)}
		if geometric {
			su.X = e.n.Users[u].Pos.X
			su.Y = e.n.Users[u].Pos.Y
		}
		su.Sec = e.secondaryOf(u)
		st.Users = append(st.Users, su)
	}
	st.DownAPs = append(st.DownAPs, e.n.DownAPs()...)
	sort.Ints(st.DownAPs)
	s := e.metrics.snapshot()
	st.Stats = snapCounters{
		Joins: s.Joins, Leaves: s.Leaves, UserMoves: s.UserMoves,
		DemandChanges: s.DemandChanges, APDowns: s.APDowns, APUps: s.APUps,
		Orphaned: s.Orphaned, Rejected: s.Rejected,
		Redecisions: s.Redecisions, Handoffs: s.Handoffs, Truncated: s.Truncated,
	}
	return json.Marshal(st)
}

// RestoreSnapshot rebuilds an engine over a freshly constructed n
// (same scenario, same layout as the engine that called
// EncodeSnapshot) so that it is behaviorally indistinguishable from
// the original: the same events applied to both afterwards yield
// byte-identical snapshots, loads, and stats.
// cfg must match the original engine's config (the daemon journals
// the scenario request and rebuilds both from it). No distributed
// seeding run happens — the association comes from the snapshot.
func RestoreSnapshot(n *wlan.Network, cfg Config, data []byte) (*Engine, error) {
	var st snapState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("engine: decode snapshot: %w", err)
	}
	if st.Version != 1 && st.Version != snapshotVersion {
		return nil, fmt.Errorf("engine: snapshot version %d, want 1 or %d", st.Version, snapshotVersion)
	}
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
			if !e.multihomeOn() {
				return nil, fmt.Errorf("engine: snapshot user %d carries secondary homes but MaxHomes is %d", su.U, cfg.MaxHomes)
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
	for _, a := range st.DownAPs {
		if err := n.DisableAP(a); err != nil {
			return nil, fmt.Errorf("engine: restore ap %d down: %w", a, err)
		}
	}
	// finish seeds the trackers by re-associating; their loads are exact
	// functions of the association, so they equal the original's bits.
	if err := e.finish(assoc, prevSec); err != nil {
		return nil, err
	}
	e.metrics.restore(st.Stats)
	return e, nil
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
