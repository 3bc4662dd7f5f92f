package wlan

import (
	"fmt"
	"slices"

	"wlanmcast/internal/radio"
)

// Quanta is a load counted in whole quanta of 1/(27·2⁴⁰) ≈ 3.4e-14
// load units. Every load in this package — a tracker's per-AP loads
// and totals, a what-if delta, the Network functions' from-scratch
// loads — is a sum of per-session terms, each rounded to quanta once.
// Integer addition is exact and order-free, so a load depends only on
// which rows are occupied and at which rate, never on the order past
// updates arrived in: an incremental tracker and a from-scratch
// recomputation return the same bits by construction.
//
// The quantum is sized so the paper's loads need no rounding at all:
// every 802.11a rate (6 to 54 Mbps) divides 27·2⁴ Mbps, so a session
// whose bitrate is a multiple of 2⁻³⁶ Mbps loads each of them by a
// whole number of quanta, and equal fractions stay equal — 1/3 − 1/6
// is exactly 1/6, as it would not be after rounding each term to a
// power-of-two quantum. The quantum also stays well below the 1e-12
// tolerances the algorithms compare loads with.
type Quanta int64

// quantaPerLoad is the number of quanta in one load unit.
const quantaPerLoad = 27 << 40

// maxQuanta bounds every per-AP load (newLoadCube enforces it), so
// distinct loads convert to distinct float64s in the same order, and
// an int64 total has room for 2048 APs at the bound.
const maxQuanta Quanta = 1 << 52

// Load converts q to load units, correctly rounded.
func (q Quanta) Load() float64 { return float64(q) / quantaPerLoad }

// toQuanta rounds a non-negative load to the nearest quantum. It adds
// one half and truncates because math.Round is measurably slower under
// the what-if queries.
func toQuanta(load float64) Quanta { return Quanta(load*quantaPerLoad + 0.5) }

// quanta returns session s's load at PHY rate r in quanta.
func (n *Network) quanta(s int, r radio.Mbps) Quanta { return toQuanta(n.SessionLoad(s, r)) }

// loadCube is the dense per-AP per-session rate occupancy cube under
// a Tracker. counts[(ap*nSess+s)*nLev+l] counts the homes on ap of
// session-s users whose multicast transmission rate from ap is
// levels[l]; the cube maintains per-AP loads incrementally from those
// occupancies. Which user holds which cell is the Tracker's home-slot
// bookkeeping, not the cube's. Dense over the network's fixed
// rate-level universe rather than nested maps, so the per-event hot
// path never allocates — the engine's zero-alloc contract depends on
// occupy and the what-if deltas staying allocation-free.
type loadCube struct {
	n *Network
	// model is n.Load as of construction: Network.Load may be swapped
	// afterwards, and a cube keeps the model its loads were summed
	// under. q[s*nLev+l] caches its term for session s at levels[l].
	model LoadModel
	q     []Quanta
	// counts is the occupancy cube described above.
	counts []uint32
	// levels is the network's frozen ascending rate universe; nLev its
	// length, nSess the session count (both fixed at construction).
	levels      []radio.Mbps
	nSess, nLev int
	// load[ap] is Σ_s term(s, lowest occupied level of ap's session-s
	// row); total is the sum of load.
	load  []Quanta
	total Quanta
	// max bounds every load from above, and equals one of them unless
	// maxStale.
	max      Quanta
	maxStale bool
}

// newLoadCube builds an empty cube over n. It refuses a network whose
// largest possible per-AP load — every session at its most expensive
// level — reaches maxQuanta (about 152 load units).
func newLoadCube(n *Network) (loadCube, error) {
	c := loadCube{
		n:      n,
		model:  n.Load,
		levels: n.rateLevels,
		nSess:  n.NumSessions(),
		nLev:   len(n.rateLevels),
		load:   make([]Quanta, n.NumAPs()),
	}
	c.counts = make([]uint32, n.NumAPs()*c.nSess*c.nLev)
	c.q = make([]Quanta, c.nSess*c.nLev)
	var peak Quanta
	for s := 0; s < c.nSess; s++ {
		var top Quanta
		for l, r := range c.levels {
			if v := n.SessionLoad(s, r); !(v >= 0 && v < maxQuanta.Load()) {
				return c, fmt.Errorf("wlan: tracker: session %d load %v at %v Mbps is outside [0, %v)", s, v, r, maxQuanta.Load())
			}
			c.q[s*c.nLev+l] = c.quanta(s, r)
			top = max(top, c.q[s*c.nLev+l])
		}
		if peak += top; peak >= maxQuanta {
			return c, fmt.Errorf("wlan: tracker: an AP could carry load %v, beyond the exact range %v", peak.Load(), maxQuanta.Load())
		}
	}
	return c, nil
}

// base returns the offset of (ap, s)'s level row in counts.
func (c *loadCube) base(ap, s int) int { return (ap*c.nSess + s) * c.nLev }

// minLevel returns the lowest occupied level at or above from in the
// row at base, or -1 when there is none.
func (c *loadCube) minLevel(base, from int) int {
	for l := from; l < c.nLev; l++ {
		if c.counts[base+l] > 0 {
			return l
		}
	}
	return -1
}

// quanta returns session s's load at rate r under the cube's model.
func (c *loadCube) quanta(s int, r radio.Mbps) Quanta {
	return toQuanta(c.model.SessionLoad(c.n.Sessions[s].Rate, r))
}

// term returns session s's load at level l, 0 for l < 0 (no level).
func (c *loadCube) term(s, l int) Quanta {
	if l < 0 {
		return 0
	}
	return c.q[s*c.nLev+l]
}

// levelOf returns r's index in the rate-level universe, or -1. Linear
// scan: the universe is a handful of PHY rates, and the list is sorted
// ascending while lookups skew low, so this beats a binary search.
func (c *loadCube) levelOf(r radio.Mbps) int {
	for i, v := range c.levels {
		if v == r {
			return i
		}
	}
	return -1
}

// cell returns the session and rate level user u occupies on AP ap at
// the network's current rates; lv < 0 when ap cannot serve u.
func (c *loadCube) cell(u, ap int) (s, lv int) {
	r, ok := c.n.TxRate(ap, u)
	if !ok {
		return 0, -1
	}
	return c.n.UserSession(u), c.levelOf(r)
}

// occupy adds (d = 1) or releases (d = -1) one occupancy of level lv in
// ap's session-s row, and moves ap's load by the change of the row's
// term. It is the only writer of the loads.
func (c *loadCube) occupy(ap, s, lv, d int) {
	b := c.base(ap, s)
	old := c.term(s, c.minLevel(b, 0))
	c.counts[b+lv] += uint32(d) // d = -1 wraps to a decrement
	now := c.term(s, c.minLevel(b, 0))
	if now == old {
		return
	}
	prev := c.load[ap]
	l := prev + now - old
	c.load[ap] = l
	c.total += now - old
	switch {
	case l >= c.max:
		c.max, c.maxStale = l, false
	case prev == c.max:
		c.maxStale = true
	}
}

// maxLoad returns the largest AP load, rescanning only when the AP
// that held it has since lost load.
func (c *loadCube) maxLoad() Quanta {
	if c.maxStale {
		c.max = 0
		for _, l := range c.load {
			c.max = max(c.max, l)
		}
		c.maxStale = false
	}
	return c.max
}

// joinDelta returns how much AP ap's load would grow if user u
// additionally occupied it, and whether u can join (in range). It
// computes u's term from its rate rather than looking up the rate's
// level: the level search would cost more than the load model, on the
// distributed rules' innermost query.
func (c *loadCube) joinDelta(u, ap int) (Quanta, bool) {
	r, ok := c.n.TxRate(ap, u)
	if !ok {
		return 0, false
	}
	s := c.n.UserSession(u)
	old := c.minLevel(c.base(ap, s), 0)
	if old >= 0 && c.levels[old] <= r {
		return 0, true
	}
	return c.quanta(s, r) - c.term(s, old), true
}

// dropDelta returns how AP ap's load would change if the home
// occupying cell (s*nLev+level) on it left: nonzero only when that home
// is its row's sole slowest member.
func (c *loadCube) dropDelta(ap int, cell int32) Quanta {
	s, lv := int(cell)/c.nLev, int(cell)%c.nLev
	b := c.base(ap, s)
	if c.minLevel(b, 0) != lv || c.counts[b+lv] > 1 {
		return 0
	}
	return c.term(s, c.minLevel(b, lv+1)) - c.term(s, lv)
}

// Tracker maintains per-AP load incrementally as users gain and lose
// homes, the APs they receive their session from. The distributed
// algorithms evaluate many hypothetical "what if I joined AP a / left
// my AP" loads per decision; recomputing from scratch would be
// O(users) each time, the tracker answers in O(rate levels) from its
// occupancy cube. Every user holds at most a cap of homes fixed at
// construction: 1 for the single-AP association the paper's algorithms
// build (NewTracker), more for multi-homing (NewCappedTracker). Its
// loads are exact (see Quanta): equal, bit for bit, to the Network
// functions over the materialized association, so two trackers holding
// the same homes answer every query with the same bits — which is what
// lets the engine keep one alive across calls and re-derive only the
// users a call touched.
//
// Each home records the (session, rate level) cell it occupies when it
// is added, and removal releases that cell: a home can be removed
// after its AP went down or its user moved or changed session.
type Tracker struct {
	cube loadCube
	// User u's homes are the slots [u*maxHomes, (u+1)*maxHomes) of
	// homes, its APs ascending and then Unassociated; cells[i] is the
	// cube cell s*nLev+level the home in slot i occupies. At cap 1,
	// homes is the association.
	maxHomes int
	homes    []int
	cells    []int32
	// satisfied counts users with at least one home, nHomes all homes.
	satisfied, nHomes int
	// oldAPs/oldCells are ReplaceHomes' scratch.
	oldAPs   []int
	oldCells []int32
}

// NewTracker builds a single-AP tracker (cap 1) over network n starting
// from association a (nil for the all-unassociated start).
func NewTracker(n *Network, a *Assoc) (*Tracker, error) {
	t, err := newTracker(n, 1)
	if err != nil || a == nil {
		return t, err
	}
	if a.NumUsers() != n.NumUsers() {
		return nil, fmt.Errorf("wlan: tracker: association covers %d users, network has %d", a.NumUsers(), n.NumUsers())
	}
	for u, ap := range a.apOf {
		if ap != Unassociated {
			if err := t.AddHome(u, ap); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// NewCappedTracker builds a tracker over network n whose users hold up
// to maxHomes homes each (a cap below 1 means 1), starting from
// multi-association m (nil for the all-unassociated start).
func NewCappedTracker(n *Network, maxHomes int, m *MultiAssoc) (*Tracker, error) {
	t, err := newTracker(n, max(maxHomes, 1))
	if err != nil || m == nil {
		return t, err
	}
	if m.NumUsers() != n.NumUsers() {
		return nil, fmt.Errorf("wlan: tracker: multi-association covers %d users, network has %d", m.NumUsers(), n.NumUsers())
	}
	for u, hs := range m.homes {
		for _, ap := range hs {
			if err := t.AddHome(u, ap); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// newTracker builds an empty tracker with the given cap.
func newTracker(n *Network, maxHomes int) (*Tracker, error) {
	cube, err := newLoadCube(n)
	if err != nil {
		return nil, err
	}
	t := &Tracker{
		cube:     cube,
		maxHomes: maxHomes,
		homes:    make([]int, n.NumUsers()*maxHomes),
		cells:    make([]int32, n.NumUsers()*maxHomes),
	}
	for i := range t.homes {
		t.homes[i] = Unassociated
	}
	return t, nil
}

// APOf returns user u's lowest-id home, Unassociated for none: at cap
// 1, the AP u is associated with.
func (t *Tracker) APOf(u int) int { return t.homes[u*t.maxHomes] }

// Homes returns u's current AP set, ascending. The slice is the
// tracker's storage: callers must not modify it, and it follows u's
// later changes.
func (t *Tracker) Homes(u int) []int {
	b := u * t.maxHomes
	e := b
	for e < b+t.maxHomes && t.homes[e] != Unassociated {
		e++
	}
	return t.homes[b:e:e]
}

// Degree returns how many APs user u is currently homed to.
func (t *Tracker) Degree(u int) int { return len(t.Homes(u)) }

// HasHome reports whether user u is currently homed to ap.
func (t *Tracker) HasHome(u, ap int) bool { return slices.Contains(t.Homes(u), ap) }

// APLoad returns the current multicast load of ap.
func (t *Tracker) APLoad(ap int) float64 { return t.cube.load[ap].Load() }

// TotalLoad returns the current total multicast load.
func (t *Tracker) TotalLoad() float64 { return t.cube.total.Load() }

// MaxLoad returns the current maximum AP load (0 with no homes),
// rescanning the APs only when the one that held it has since lost
// load.
func (t *Tracker) MaxLoad() float64 { return t.cube.maxLoad().Load() }

// Satisfied returns how many users currently have at least one home.
func (t *Tracker) Satisfied() int { return t.satisfied }

// NumHomes returns the total number of homes over all users.
func (t *Tracker) NumHomes() int { return t.nHomes }

// Assoc materializes the single-AP association: every user's APOf.
func (t *Tracker) Assoc() *Assoc {
	a := &Assoc{apOf: make([]int, len(t.homes)/t.maxHomes)}
	for u := range a.apOf {
		a.apOf[u] = t.homes[u*t.maxHomes]
	}
	return a
}

// MultiAssoc materializes every user's AP set.
func (t *Tracker) MultiAssoc() *MultiAssoc {
	m := NewMultiAssoc(len(t.homes) / t.maxHomes)
	flat := make([]int, 0, t.nHomes)
	for u := range m.homes {
		if hs := t.Homes(u); len(hs) > 0 {
			flat = append(flat, hs...)
			m.homes[u] = flat[len(flat)-len(hs) : len(flat) : len(flat)]
		}
	}
	return m
}

// AddHome homes user u to AP ap, updating loads incrementally. ap must
// be in range and not already one of u's homes, and u below the cap:
// at cap 1, unassociated.
func (t *Tracker) AddHome(u, ap int) error {
	hs := t.Homes(u)
	i, found := slices.BinarySearch(hs, ap)
	switch {
	case found:
		return fmt.Errorf("wlan: tracker: user %d already homed to AP %d", u, ap)
	case len(hs) == t.maxHomes:
		return fmt.Errorf("wlan: tracker: user %d already holds its %d homes %v", u, t.maxHomes, hs)
	}
	c := &t.cube
	s, lv := c.cell(u, ap)
	if lv < 0 {
		return fmt.Errorf("wlan: tracker: AP %d cannot serve user %d (out of range, or a rate outside the network's levels)", ap, u)
	}
	b, d := u*t.maxHomes, len(hs)
	copy(t.homes[b+i+1:b+d+1], t.homes[b+i:b+d])
	copy(t.cells[b+i+1:b+d+1], t.cells[b+i:b+d])
	t.homes[b+i], t.cells[b+i] = ap, int32(s*c.nLev+lv)
	c.occupy(ap, s, lv, 1)
	t.nHomes++
	if d == 0 {
		t.satisfied++
	}
	return nil
}

// removeAt removes u's i-th home, releasing the cell it recorded.
func (t *Tracker) removeAt(u, i int) {
	c := &t.cube
	b, d := u*t.maxHomes, t.Degree(u)
	cell := int(t.cells[b+i])
	c.occupy(t.homes[b+i], cell/c.nLev, cell%c.nLev, -1)
	copy(t.homes[b+i:b+d-1], t.homes[b+i+1:b+d])
	copy(t.cells[b+i:b+d-1], t.cells[b+i+1:b+d])
	t.homes[b+d-1] = Unassociated
	t.nHomes--
	if d == 1 {
		t.satisfied--
	}
}

// dropHomes removes all of u's homes.
func (t *Tracker) dropHomes(u int) {
	for i := t.Degree(u) - 1; i >= 0; i-- {
		t.removeAt(u, i)
	}
}

// Disassociate removes all of user u's homes (at cap 1, its AP),
// releasing the cells they recorded. u must have a home.
func (t *Tracker) Disassociate(u int) error {
	if t.APOf(u) == Unassociated {
		return fmt.Errorf("wlan: tracker: user %d is not associated", u)
	}
	t.dropHomes(u)
	return nil
}

// Move reassociates user u to AP ap alone — the degree-1 move: a no-op
// when ap is already u's APOf, otherwise u's homes are dropped and ap
// added.
func (t *Tracker) Move(u, ap int) error {
	if t.APOf(u) == ap {
		return nil
	}
	t.dropHomes(u)
	return t.AddHome(u, ap)
}

// ReplaceHomes sets user u's AP set to aps (no duplicates, every AP in
// range, at most the cap) and appends to lost each AP where u no
// longer holds the cell it held before: the AP was dropped, or u now
// sits there at another session or rate. Those are the APs whose
// occupancy may have shrunk. On error the set is left partially
// installed.
func (t *Tracker) ReplaceHomes(u int, aps []int, lost []int) ([]int, error) {
	b, hs := u*t.maxHomes, t.Homes(u)
	t.oldAPs = append(t.oldAPs[:0], hs...)
	t.oldCells = append(t.oldCells[:0], t.cells[b:b+len(hs)]...)
	t.dropHomes(u)
	for _, ap := range aps {
		if err := t.AddHome(u, ap); err != nil {
			return lost, err
		}
	}
	for i, ap := range t.oldAPs {
		if j := slices.Index(t.Homes(u), ap); j < 0 || t.cells[b+j] != t.oldCells[i] {
			lost = append(lost, ap)
		}
	}
	return lost, nil
}

// LoadIfJoin returns AP ap's load if user u additionally homed to it,
// the join's exact change to that load, and whether the join is
// possible (in range and not already a home). u's other homes are
// ignored: a degree-1 caller weighing a move combines it with
// LoadIfLeave.
func (t *Tracker) LoadIfJoin(u, ap int) (load, delta float64, ok bool) {
	if t.HasHome(u, ap) {
		return 0, 0, false
	}
	d, ok := t.cube.joinDelta(u, ap)
	if !ok {
		return 0, 0, false
	}
	return (t.cube.load[ap] + d).Load(), d.Load(), true
}

// LoadIfLeave returns the load of u's APOf if u left it — the degree-1
// what-if — and that AP; (0, Unassociated) when u has no home.
func (t *Tracker) LoadIfLeave(u int) (float64, int) {
	b := u * t.maxHomes
	ap := t.homes[b]
	if ap == Unassociated {
		return 0, Unassociated
	}
	return (t.cube.load[ap] + t.cube.dropDelta(ap, t.cells[b])).Load(), ap
}
