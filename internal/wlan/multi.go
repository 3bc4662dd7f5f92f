package wlan

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"wlanmcast/internal/radio"
)

// MultiAssoc is a multi-connectivity association decision: for every
// user, the *set* of APs it receives its multicast session from —
// sorted ascending, empty meaning unassociated. A user homed to
// several APs combines the streams (arXiv 2305.15252's model), so an
// AP failure degrades its aggregate rate instead of orphaning it.
// Like Assoc, a MultiAssoc knows nothing about loads; pair it with
// the Network to evaluate.
type MultiAssoc struct {
	// homes[u] is u's sorted ascending AP id list; nil and empty are
	// both "unassociated" (marshalling canonicalizes to []).
	homes [][]int
}

// NewMultiAssoc returns a multi-association with every user
// unassociated.
func NewMultiAssoc(numUsers int) *MultiAssoc {
	return &MultiAssoc{homes: make([][]int, numUsers)}
}

// FromAssoc lifts a single-AP association into the multi-homing
// representation: each associated user gets the one-element AP set.
func FromAssoc(a *Assoc) *MultiAssoc {
	ma := NewMultiAssoc(a.NumUsers())
	for u := 0; u < a.NumUsers(); u++ {
		if ap := a.APOf(u); ap != Unassociated {
			ma.homes[u] = []int{ap}
		}
	}
	return ma
}

// NumUsers returns the number of users covered by this association.
func (m *MultiAssoc) NumUsers() int { return len(m.homes) }

// Homes returns u's sorted AP set. The slice is shared; callers must
// not modify it.
func (m *MultiAssoc) Homes(u int) []int { return m.homes[u] }

// Degree returns how many APs user u is homed to.
func (m *MultiAssoc) Degree(u int) int { return len(m.homes[u]) }

// HasHome reports whether ap is in u's AP set. Linear scan: AP sets
// are a handful of entries (MaxHomes), sorted ascending.
func (m *MultiAssoc) HasHome(u, ap int) bool {
	for _, a := range m.homes[u] {
		if a == ap {
			return true
		}
		if a > ap {
			return false
		}
	}
	return false
}

// AddHome inserts ap into u's AP set, keeping it sorted. It reports
// whether the set changed (false = already present).
func (m *MultiAssoc) AddHome(u, ap int) bool {
	hs := m.homes[u]
	i := sort.SearchInts(hs, ap)
	if i < len(hs) && hs[i] == ap {
		return false
	}
	hs = append(hs, 0)
	copy(hs[i+1:], hs[i:])
	hs[i] = ap
	m.homes[u] = hs
	return true
}

// RemoveHome removes ap from u's AP set; it reports whether the set
// changed (false = not present).
func (m *MultiAssoc) RemoveHome(u, ap int) bool {
	hs := m.homes[u]
	i := sort.SearchInts(hs, ap)
	if i >= len(hs) || hs[i] != ap {
		return false
	}
	m.homes[u] = append(hs[:i], hs[i+1:]...)
	return true
}

// SatisfiedCount returns how many users have at least one home.
func (m *MultiAssoc) SatisfiedCount() int {
	n := 0
	for _, hs := range m.homes {
		if len(hs) > 0 {
			n++
		}
	}
	return n
}

// SecondaryCount returns the total number of homes beyond each user's
// first — the redundancy the multi-homing layer added.
func (m *MultiAssoc) SecondaryCount() int {
	n := 0
	for _, hs := range m.homes {
		if len(hs) > 1 {
			n += len(hs) - 1
		}
	}
	return n
}

// Clone returns a deep copy.
func (m *MultiAssoc) Clone() *MultiAssoc {
	c := NewMultiAssoc(m.NumUsers())
	for u, hs := range m.homes {
		if len(hs) > 0 {
			c.homes[u] = append([]int(nil), hs...)
		}
	}
	return c
}

// Equal reports whether two multi-associations give every user the
// identical AP set.
func (m *MultiAssoc) Equal(o *MultiAssoc) bool {
	if len(m.homes) != len(o.homes) {
		return false
	}
	for u := range m.homes {
		if len(m.homes[u]) != len(o.homes[u]) {
			return false
		}
		for i := range m.homes[u] {
			if m.homes[u][i] != o.homes[u][i] {
				return false
			}
		}
	}
	return true
}

// MarshalJSON encodes the association as an array of per-user AP-id
// arrays, unassociated users as []. Every inner slice is emitted
// non-null so the byte form is canonical — the differential suites
// compare marshalled bytes.
func (m *MultiAssoc) MarshalJSON() ([]byte, error) {
	out := make([][]int, len(m.homes))
	for u, hs := range m.homes {
		if hs == nil {
			out[u] = []int{}
		} else {
			out[u] = hs
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the array-of-arrays form. Each AP set must be
// strictly ascending (sorted, no duplicates) with non-negative ids; a
// JSON null is rejected rather than silently producing a zero-user
// association (an inner null reads as an empty set). Range checking
// against an AP count needs network context — use DecodeMultiAssoc
// when the association arrives over the wire.
func (m *MultiAssoc) UnmarshalJSON(data []byte) error {
	var homes [][]int
	if err := json.Unmarshal(data, &homes); err != nil {
		return fmt.Errorf("wlan: decode multi-association: %w", err)
	}
	if homes == nil {
		return fmt.Errorf("wlan: decode multi-association: null is not an association")
	}
	for u, hs := range homes {
		for i, ap := range hs {
			if ap < 0 {
				return fmt.Errorf("wlan: decode multi-association: user %d has negative AP id %d", u, ap)
			}
			if i > 0 && hs[i-1] >= ap {
				return fmt.Errorf("wlan: decode multi-association: user %d AP set not strictly ascending at %d", u, ap)
			}
		}
	}
	m.homes = homes
	return nil
}

// DecodeMultiAssoc decodes a JSON multi-association and validates it
// against the given network shape: exactly numUsers entries, every AP
// id in [0, numAPs), and — when maxHomes >= 1 — no user homed to more
// than maxHomes APs. Untrusted input (the assocd HTTP server) must
// come through here, not bare UnmarshalJSON, which cannot know the AP
// count or the configured degree cap.
func DecodeMultiAssoc(data []byte, numAPs, numUsers, maxHomes int) (*MultiAssoc, error) {
	var m MultiAssoc
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if m.NumUsers() != numUsers {
		return nil, fmt.Errorf("wlan: decode multi-association: %d entries, network has %d users", m.NumUsers(), numUsers)
	}
	for u, hs := range m.homes {
		if maxHomes >= 1 && len(hs) > maxHomes {
			return nil, fmt.Errorf("wlan: decode multi-association: user %d has %d homes, cap is %d", u, len(hs), maxHomes)
		}
		for _, ap := range hs {
			if ap >= numAPs {
				return nil, fmt.Errorf("wlan: decode multi-association: user %d has out-of-range AP %d (network has %d APs)", u, ap, numAPs)
			}
		}
	}
	return &m, nil
}

// APLoadMulti computes the multicast load of AP ap under
// multi-association m: identical to the single-AP Definition 1 load,
// except membership is "ap is in u's AP set" — each of an AP's
// sessions is transmitted once at the slowest homed member's rate no
// matter how many other APs those members also receive from.
func (n *Network) APLoadMulti(m *MultiAssoc, ap int) float64 {
	return n.apQuanta(ap, m.HasHome, make([]radio.Mbps, len(n.Sessions))).Load()
}

// MaxLoadMulti returns the maximum AP load under m.
func (n *Network) MaxLoadMulti(m *MultiAssoc) float64 {
	_, peak := n.loadTotals(m.HasHome)
	return peak.Load()
}

// AggregateRate returns user u's combined receive rate under m: the
// exact sum, in ascending AP order, of the transmission rates of its
// live homes (down APs contribute nothing). This is the quantity
// multi-homing degrades gracefully where the single-AP model drops to
// zero.
func (n *Network) AggregateRate(m *MultiAssoc, u int) radio.Mbps {
	var sum radio.Mbps
	for _, ap := range m.homes[u] {
		if r, ok := n.TxRate(ap, u); ok {
			sum += r
		}
	}
	return sum
}

// ValidateMulti checks that multi-association m is well-formed for
// network n: per-user AP sets strictly ascending within [0, NumAPs)
// with every homed AP in range, and optionally that every AP load
// stays within its budget.
func (n *Network) ValidateMulti(m *MultiAssoc, enforceBudgets bool) error {
	if m.NumUsers() != len(n.Users) {
		return fmt.Errorf("wlan: multi-association covers %d users, network has %d", m.NumUsers(), len(n.Users))
	}
	for u, hs := range m.homes {
		for i, ap := range hs {
			if ap < 0 || ap >= len(n.APs) {
				return fmt.Errorf("wlan: user %d homed to unknown AP %d", u, ap)
			}
			if i > 0 && hs[i-1] >= ap {
				return fmt.Errorf("wlan: user %d AP set not strictly ascending at %d", u, ap)
			}
			if !n.Reachable(ap, u) {
				return fmt.Errorf("wlan: user %d homed to out-of-range AP %d", u, ap)
			}
		}
	}
	if enforceBudgets {
		for ap := range n.APs {
			if l := n.APLoadMulti(m, ap); l > n.APs[ap].Budget+loadEps {
				return fmt.Errorf("wlan: AP %d load %.4f exceeds budget %.4f", ap, l, n.APs[ap].Budget)
			}
		}
	}
	return nil
}

// MultiTracker maintains per-AP load incrementally as users gain and
// lose homes, the multi-homing counterpart of Tracker: the same
// loadCube occupancy cube underneath, but a user may occupy several
// AP rows at once. Its loads are exact (see Quanta), so two trackers
// holding the same homes answer every query with the same bits as each
// other and as APLoadMulti over the materialized association — which
// is what lets the engine keep one tracker alive across calls and
// re-derive only the users a call touched.
//
// Each home records the (session, rate level) cell it occupies when it
// is added, and removal releases that cell: a home can be removed
// after its AP went down or its user moved or changed session.
type MultiTracker struct {
	cube loadCube
	// ma mirrors the tracked multi-association; cells[u][i] is the
	// cube cell s*nLev+level that u's home ma.homes[u][i] occupies.
	ma    *MultiAssoc
	cells [][]int32
	// satisfied counts users with at least one home, homes all homes.
	satisfied, homes int
	// oldAPs/oldCells are ReplaceHomes' scratch.
	oldAPs   []int
	oldCells []int32
}

// NewMultiTracker builds a tracker over network n starting from
// multi-association m (which may be nil for the all-unassociated
// start).
func NewMultiTracker(n *Network, m *MultiAssoc) (*MultiTracker, error) {
	cube, err := newLoadCube(n)
	if err != nil {
		return nil, err
	}
	t := &MultiTracker{
		cube:  cube,
		ma:    NewMultiAssoc(n.NumUsers()),
		cells: make([][]int32, n.NumUsers()),
	}
	if m != nil {
		if m.NumUsers() != n.NumUsers() {
			return nil, fmt.Errorf("wlan: tracker: multi-association covers %d users, network has %d", m.NumUsers(), n.NumUsers())
		}
		for u := 0; u < m.NumUsers(); u++ {
			for _, ap := range m.Homes(u) {
				if err := t.AddHome(u, ap); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// Homes returns u's current sorted AP set (shared slice, do not
// modify).
func (t *MultiTracker) Homes(u int) []int { return t.ma.Homes(u) }

// Degree returns how many APs user u is currently homed to.
func (t *MultiTracker) Degree(u int) int { return t.ma.Degree(u) }

// HasHome reports whether user u is currently homed to ap.
func (t *MultiTracker) HasHome(u, ap int) bool { return t.homeIndex(u, ap) >= 0 }

// APLoad returns the current multicast load of ap.
func (t *MultiTracker) APLoad(ap int) float64 { return t.cube.load[ap].Load() }

// TotalLoad returns the current total multicast load.
func (t *MultiTracker) TotalLoad() float64 { return t.cube.total.Load() }

// MaxLoad returns the current maximum AP load (0 with no homes): the
// same bits as MaxLoadMulti over the materialized association, without
// its rescan of every AP's members.
func (t *MultiTracker) MaxLoad() float64 { return t.cube.maxLoad().Load() }

// Satisfied returns how many users currently have at least one home.
func (t *MultiTracker) Satisfied() int { return t.satisfied }

// NumHomes returns the total number of homes over all users.
func (t *MultiTracker) NumHomes() int { return t.homes }

// MultiAssoc materializes the tracked multi-association.
func (t *MultiTracker) MultiAssoc() *MultiAssoc { return t.ma.Clone() }

// homeIndex returns ap's index in u's home set, or -1.
func (t *MultiTracker) homeIndex(u, ap int) int {
	hs := t.ma.homes[u]
	if i := sort.SearchInts(hs, ap); i < len(hs) && hs[i] == ap {
		return i
	}
	return -1
}

// AddHome homes user u to AP ap, updating loads incrementally. ap
// must not already be one of u's homes and must be in range.
func (t *MultiTracker) AddHome(u, ap int) error {
	if t.HasHome(u, ap) {
		return fmt.Errorf("wlan: tracker: user %d already homed to AP %d", u, ap)
	}
	c := &t.cube
	s, lv := c.cell(u, ap)
	if lv < 0 {
		return fmt.Errorf("wlan: tracker: AP %d cannot serve user %d (out of range, or a rate outside the network's levels)", ap, u)
	}
	i := sort.SearchInts(t.ma.homes[u], ap)
	t.ma.homes[u] = slices.Insert(t.ma.homes[u], i, ap)
	t.cells[u] = slices.Insert(t.cells[u], i, int32(s*c.nLev+lv))
	c.occupy(ap, s, lv, 1)
	t.homes++
	if len(t.ma.homes[u]) == 1 {
		t.satisfied++
	}
	return nil
}

// removeAt removes u's i-th home.
func (t *MultiTracker) removeAt(u, i int) {
	c := &t.cube
	cell := int(t.cells[u][i])
	c.occupy(t.ma.homes[u][i], cell/c.nLev, cell%c.nLev, -1)
	t.ma.homes[u] = slices.Delete(t.ma.homes[u], i, i+1)
	t.cells[u] = slices.Delete(t.cells[u], i, i+1)
	t.homes--
	if len(t.ma.homes[u]) == 0 {
		t.satisfied--
	}
}

// ReplaceHomes sets user u's AP set to aps (no duplicates, every AP in
// range) and appends to lost each AP where u no longer holds the cell
// it held before: the AP was dropped, or u now sits there at another
// session or rate. Those are the APs whose occupancy may have shrunk.
// On error the set is left partially installed.
func (t *MultiTracker) ReplaceHomes(u int, aps []int, lost []int) ([]int, error) {
	t.oldAPs = append(t.oldAPs[:0], t.ma.homes[u]...)
	t.oldCells = append(t.oldCells[:0], t.cells[u]...)
	for i := len(t.oldAPs) - 1; i >= 0; i-- {
		t.removeAt(u, i)
	}
	for _, ap := range aps {
		if err := t.AddHome(u, ap); err != nil {
			return lost, err
		}
	}
	for i, ap := range t.oldAPs {
		if j := t.homeIndex(u, ap); j < 0 || t.cells[u][j] != t.oldCells[i] {
			lost = append(lost, ap)
		}
	}
	return lost, nil
}

// LoadIfJoin returns AP ap's load if user u additionally homed to it,
// the join's exact change to its session row (new row term minus old),
// and whether the join is possible (in range and not already a home).
// The load can only grow as the AP gains occupancy.
func (t *MultiTracker) LoadIfJoin(u, ap int) (load, delta float64, ok bool) {
	if t.HasHome(u, ap) {
		return 0, 0, false
	}
	d, ok := t.cube.joinDelta(u, ap)
	if !ok {
		return 0, 0, false
	}
	return (t.cube.load[ap] + d).Load(), d.Load(), true
}
