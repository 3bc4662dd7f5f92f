package wlan

import (
	"fmt"

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

// loadCube is the dense per-AP per-session rate occupancy cube shared
// by the single-AP Tracker and the multi-homing MultiTracker.
// counts[(ap*nSess+s)*nLev+l] counts the users of session s homed to
// ap whose multicast transmission rate from ap is levels[l]; the cube
// maintains per-AP loads incrementally from those occupancies. It is
// association-shape agnostic: it has no idea whether a user occupies
// one row (single-AP) or several (multi-homing) — that bookkeeping
// (apOf / homesOf) lives in the trackers wrapping it. Dense over the
// network's fixed rate-level universe rather than nested maps, so the
// per-event hot path never allocates — the engine's zero-alloc
// contract depends on occupy and the what-if deltas staying
// allocation-free.
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

// dropDelta returns how AP ap's load would change if user u, which
// occupies it, left: nonzero only when u is its row's sole slowest
// member.
func (c *loadCube) dropDelta(u, ap int) Quanta {
	r, _ := c.n.TxRate(ap, u)
	s := c.n.UserSession(u)
	b := c.base(ap, s)
	lv := c.minLevel(b, 0)
	if lv < 0 || c.levels[lv] != r || c.counts[b+lv] > 1 {
		return 0
	}
	return c.term(s, c.minLevel(b, lv+1)) - c.term(s, lv)
}

// Tracker maintains per-AP load incrementally as users associate and
// disassociate. The distributed algorithms evaluate many hypothetical
// "what if I joined AP a / left my AP" loads per decision; recomputing
// from scratch would be O(users) each time, the tracker answers in
// O(rate levels) using the shared loadCube occupancy cube. Exactly one
// occupancy per associated user: apOf is the association. Its loads
// are exact (see Quanta): equal, bit for bit, to the Network functions
// over the materialized association.
type Tracker struct {
	cube loadCube
	// apOf[u] mirrors the association.
	apOf []int
	// satisfied counts the currently associated users.
	satisfied int
}

// NewTracker builds a tracker over network n starting from association
// a (which may be nil for the all-unassociated start).
func NewTracker(n *Network, a *Assoc) (*Tracker, error) {
	cube, err := newLoadCube(n)
	if err != nil {
		return nil, err
	}
	t := &Tracker{
		cube: cube,
		apOf: make([]int, n.NumUsers()),
	}
	for u := range t.apOf {
		t.apOf[u] = Unassociated
	}
	if a != nil {
		if a.NumUsers() != n.NumUsers() {
			return nil, fmt.Errorf("wlan: tracker: association covers %d users, network has %d", a.NumUsers(), n.NumUsers())
		}
		for u := 0; u < a.NumUsers(); u++ {
			if ap := a.APOf(u); ap != Unassociated {
				if err := t.Associate(u, ap); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// APOf returns the AP user u is currently associated with.
func (t *Tracker) APOf(u int) int { return t.apOf[u] }

// APLoad returns the current multicast load of ap.
func (t *Tracker) APLoad(ap int) float64 { return t.cube.load[ap].Load() }

// TotalLoad returns the current total multicast load.
func (t *Tracker) TotalLoad() float64 { return t.cube.total.Load() }

// Satisfied returns how many users are currently associated (served).
func (t *Tracker) Satisfied() int { return t.satisfied }

// MaxLoad returns the current maximum AP load.
func (t *Tracker) MaxLoad() float64 { return t.cube.maxLoad().Load() }

// Assoc materializes the tracked association.
func (t *Tracker) Assoc() *Assoc {
	return &Assoc{apOf: append([]int(nil), t.apOf...)}
}

// Associate adds user u to AP ap, updating loads incrementally.
// u must currently be unassociated.
func (t *Tracker) Associate(u, ap int) error {
	if t.apOf[u] != Unassociated {
		return fmt.Errorf("wlan: tracker: user %d already associated with AP %d", u, t.apOf[u])
	}
	s, lv := t.cube.cell(u, ap)
	if lv < 0 {
		return fmt.Errorf("wlan: tracker: AP %d cannot serve user %d (out of range, or a rate outside the network's levels)", ap, u)
	}
	t.cube.occupy(ap, s, lv, 1)
	t.apOf[u] = ap
	t.satisfied++
	return nil
}

// Disassociate removes user u from its AP. u must be associated, and
// its link to the AP unchanged since it associated.
func (t *Tracker) Disassociate(u int) error {
	ap := t.apOf[u]
	if ap == Unassociated {
		return fmt.Errorf("wlan: tracker: user %d is not associated", u)
	}
	s, lv := t.cube.cell(u, ap)
	if lv < 0 {
		return fmt.Errorf("wlan: tracker: user %d lost its link to AP %d while associated", u, ap)
	}
	t.cube.occupy(ap, s, lv, -1)
	t.apOf[u] = Unassociated
	t.satisfied--
	return nil
}

// Move reassociates user u to AP ap in one step.
func (t *Tracker) Move(u, ap int) error {
	if t.apOf[u] == ap {
		return nil
	}
	if t.apOf[u] != Unassociated {
		if err := t.Disassociate(u); err != nil {
			return err
		}
	}
	return t.Associate(u, ap)
}

// LoadIfJoin returns AP ap's load if user u additionally associated
// with it, and whether the join is possible (in range). u's current
// association is ignored — callers combine with LoadIfLeave.
func (t *Tracker) LoadIfJoin(u, ap int) (float64, bool) {
	d, ok := t.cube.joinDelta(u, ap)
	if !ok {
		return 0, false
	}
	return (t.cube.load[ap] + d).Load(), true
}

// LoadIfLeave returns the load of u's current AP if u left it. The
// second result is the AP in question; it is Unassociated when u has
// no AP (then the first result is 0).
func (t *Tracker) LoadIfLeave(u int) (float64, int) {
	ap := t.apOf[u]
	if ap == Unassociated {
		return 0, Unassociated
	}
	return (t.cube.load[ap] + t.cube.dropDelta(u, ap)).Load(), ap
}
