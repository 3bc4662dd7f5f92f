package wlan

import (
	"fmt"

	"wlanmcast/internal/radio"
)

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
// contract depends on add/remove/loadIf* staying allocation-free.
type loadCube struct {
	n *Network
	// counts is the occupancy cube described above.
	counts []uint32
	// levels is the network's frozen ascending rate universe; nLev its
	// length, nSess the session count (both fixed at construction).
	levels      []radio.Mbps
	nSess, nLev int
	// load[ap] is the cached multicast load of ap: bump-accumulated by
	// the Tracker, recomputed count-purely by the MultiTracker.
	load []float64
	// total is the cached sum of load (Tracker only).
	total float64
}

func newLoadCube(n *Network) loadCube {
	c := loadCube{
		n:      n,
		levels: n.rateLevels,
		nSess:  n.NumSessions(),
		nLev:   len(n.rateLevels),
		load:   make([]float64, n.NumAPs()),
	}
	c.counts = make([]uint32, n.NumAPs()*c.nSess*c.nLev)
	return c
}

// base returns the offset of (ap, s)'s level row in counts.
func (c *loadCube) base(ap, s int) int { return (ap*c.nSess + s) * c.nLev }

// minLevel returns the minimum occupied rate of the level row at base,
// or 0 when the row is empty (no user of that session on that AP).
func (c *loadCube) minLevel(base int) radio.Mbps {
	for l, v := range c.counts[base : base+c.nLev] {
		if v > 0 {
			return c.levels[l]
		}
	}
	return 0
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

// bump replaces ap's contribution for session s when the session's
// minimum rate changes from old to now (either may be 0 = absent).
func (c *loadCube) bump(ap, s int, old, now radio.Mbps) {
	delta := 0.0
	if old > 0 {
		delta -= c.n.SessionLoad(s, old)
	}
	if now > 0 {
		delta += c.n.SessionLoad(s, now)
	}
	c.load[ap] += delta
	c.total += delta
}

// add inserts one occupancy of user u on AP ap, updating the cached
// loads incrementally. It does not know or care whether u occupies
// other APs too.
func (c *loadCube) add(u, ap int) error {
	r, ok := c.n.TxRate(ap, u)
	if !ok {
		return fmt.Errorf("wlan: tracker: user %d out of range of AP %d", u, ap)
	}
	lv := c.levelOf(r)
	if lv < 0 {
		return fmt.Errorf("wlan: tracker: link %d→%d rate %v outside the network's rate levels", ap, u, r)
	}
	s := c.n.UserSession(u)
	b := c.base(ap, s)
	old := c.minLevel(b)
	c.counts[b+lv]++
	now := c.minLevel(b)
	c.bump(ap, s, old, now)
	return nil
}

// remove removes one occupancy of user u from AP ap. The caller must
// know u currently occupies ap.
func (c *loadCube) remove(u, ap int) error {
	r, _ := c.n.TxRate(ap, u)
	lv := c.levelOf(r)
	if lv < 0 {
		return fmt.Errorf("wlan: tracker: link %d→%d rate %v outside the network's rate levels", ap, u, r)
	}
	s := c.n.UserSession(u)
	b := c.base(ap, s)
	old := c.minLevel(b)
	c.counts[b+lv]--
	now := c.minLevel(b)
	c.bump(ap, s, old, now)
	return nil
}

// loadIfJoin returns AP ap's load if user u additionally occupied it,
// and whether the join is possible (in range).
func (c *loadCube) loadIfJoin(u, ap int) (float64, bool) {
	r, ok := c.n.TxRate(ap, u)
	if !ok {
		return 0, false
	}
	s := c.n.UserSession(u)
	old := c.minLevel(c.base(ap, s))
	now := old
	if old == 0 || r < old {
		now = r
	}
	l := c.load[ap]
	if old > 0 {
		l -= c.n.SessionLoad(s, old)
	}
	l += c.n.SessionLoad(s, now)
	return l, true
}

// loadIfDrop returns AP ap's load if user u left it. The caller must
// know u currently occupies ap.
func (c *loadCube) loadIfDrop(u, ap int) float64 {
	r, _ := c.n.TxRate(ap, u)
	lv := c.levelOf(r)
	s := c.n.UserSession(u)
	b := c.base(ap, s)
	old := c.minLevel(b)
	// Minimum after removing one copy of r.
	var now radio.Mbps
	for l, v := range c.counts[b : b+c.nLev] {
		cc := int(v)
		if l == lv {
			cc--
		}
		if cc > 0 {
			now = c.levels[l]
			break
		}
	}
	l := c.load[ap]
	if old > 0 {
		l -= c.n.SessionLoad(s, old)
	}
	if now > 0 {
		l += c.n.SessionLoad(s, now)
	}
	return l
}

// restoreLoads force-installs persisted per-AP load accumulators,
// replacing the values the seeding adds accumulated. The cached loads
// are floats whose exact bit patterns depend on the entire bump
// history; a crash-recovered cube must continue from the pre-crash
// accumulators — not from a fresh summation, which can differ in the
// last ulp — for recovered state to stay byte-identical to an
// uninterrupted run. The counts (and hence all future deltas) are
// untouched; only the accumulators move.
func (c *loadCube) restoreLoads(load []float64) error {
	if len(load) != len(c.load) {
		return fmt.Errorf("wlan: tracker: %d restored loads for %d APs", len(load), len(c.load))
	}
	copy(c.load, load)
	c.total = 0
	for _, v := range c.load {
		c.total += v
	}
	return nil
}

// maxLoad returns the current maximum AP load.
func (c *loadCube) maxLoad() float64 {
	m := 0.0
	for _, l := range c.load {
		if l > m {
			m = l
		}
	}
	return m
}

// Tracker maintains per-AP load incrementally as users associate and
// disassociate. The distributed algorithms evaluate many hypothetical
// "what if I joined AP a / left my AP" loads per decision; recomputing
// from scratch would be O(users) each time, the tracker answers in
// O(rate levels) using the shared loadCube occupancy cube. Exactly one
// occupancy per associated user: apOf is the association.
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
	t := &Tracker{
		cube: newLoadCube(n),
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
func (t *Tracker) APLoad(ap int) float64 { return t.cube.load[ap] }

// TotalLoad returns the current total multicast load.
func (t *Tracker) TotalLoad() float64 { return t.cube.total }

// Satisfied returns how many users are currently associated (served).
func (t *Tracker) Satisfied() int { return t.satisfied }

// MaxLoad returns the current maximum AP load.
func (t *Tracker) MaxLoad() float64 { return t.cube.maxLoad() }

// Assoc materializes the tracked association.
func (t *Tracker) Assoc() *Assoc {
	return &Assoc{apOf: append([]int(nil), t.apOf...)}
}

// RestoreLoads force-installs persisted per-AP load accumulators; see
// loadCube.restoreLoads for why recovery must not re-sum.
func (t *Tracker) RestoreLoads(load []float64) error {
	return t.cube.restoreLoads(load)
}

// Associate adds user u to AP ap, updating loads incrementally.
// u must currently be unassociated.
func (t *Tracker) Associate(u, ap int) error {
	if t.apOf[u] != Unassociated {
		return fmt.Errorf("wlan: tracker: user %d already associated with AP %d", u, t.apOf[u])
	}
	if err := t.cube.add(u, ap); err != nil {
		return err
	}
	t.apOf[u] = ap
	t.satisfied++
	return nil
}

// Disassociate removes user u from its AP. u must be associated.
func (t *Tracker) Disassociate(u int) error {
	ap := t.apOf[u]
	if ap == Unassociated {
		return fmt.Errorf("wlan: tracker: user %d is not associated", u)
	}
	if err := t.cube.remove(u, ap); err != nil {
		return err
	}
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
	return t.cube.loadIfJoin(u, ap)
}

// LoadIfLeave returns the load of u's current AP if u left it. The
// second result is the AP in question; it is Unassociated when u has
// no AP (then the first result is 0).
func (t *Tracker) LoadIfLeave(u int) (float64, int) {
	ap := t.apOf[u]
	if ap == Unassociated {
		return 0, Unassociated
	}
	return t.cube.loadIfDrop(u, ap), ap
}
