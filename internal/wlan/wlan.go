// Package wlan is the network model of the paper: a set of access
// points and a set of multicast users in a deployment area, the
// per-link maximum PHY rates r_{a,u}, the multicast sessions users
// request, and the resulting per-AP multicast load (Definition 1: the
// fraction of time an AP spends transmitting multicast flows).
//
// Everything the association-control algorithms in internal/core need —
// neighbor sets, transmission-rate choices, load accounting, budget
// feasibility — lives here.
package wlan

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
)

// Unassociated marks a user that receives no multicast service.
const Unassociated = -1

// DefaultBudget is the per-AP multicast load limit used throughout the
// paper's evaluation (§7).
const DefaultBudget = 0.9

// Session is one multicast stream (a TV channel, a radio channel, ...).
type Session struct {
	// ID is the session's index in Network.Sessions.
	ID int `json:"id"`
	// Rate is the stream bitrate in Mbps.
	Rate radio.Mbps `json:"rate"`
	// Name is an optional human-readable label.
	Name string `json:"name,omitempty"`
}

// AP is one access point.
type AP struct {
	// ID is the AP's index in Network.APs.
	ID int `json:"id"`
	// Pos is the AP location; meaningful only for geometric networks.
	Pos geom.Point `json:"pos"`
	// Budget is the maximum multicast load this AP may carry.
	Budget float64 `json:"budget"`
}

// User is one multicast user. Per the paper each user requests exactly
// one multicast session at a time (§3.1).
type User struct {
	// ID is the user's index in Network.Users.
	ID int `json:"id"`
	// Pos is the user location; meaningful only for geometric networks.
	Pos geom.Point `json:"pos"`
	// Session is the index of the requested session.
	Session int `json:"session"`
}

// Network is a WLAN instance. Build one with NewGeometric
// (positions + rate table, as in the paper's simulations) or
// NewFromRates (an explicit rate matrix, as in the paper's worked
// examples). Association state lives outside in Assoc values.
//
// Connectivity is stored sparsely (DESIGN.md "Sparse spatial core"):
// radio range is finite, so each user sees O(1) candidate APs and the
// AP–user graph has O(users) edges regardless of deployment size.
// The model never materializes an APs x users matrix — NewGeometric
// discovers each user's candidates through a uniform grid over the AP
// positions, and NewFromRates converts its explicit matrix into the
// same adjacency (the dense input form is just an adapter for the
// paper's worked examples).
//
// A Network is immutable under the batch algorithms; the online
// engine mutates single users through the dynamic API in dynamic.go
// (MoveUser, DetachUser, SetUserSession), which keeps all derived
// indices consistent.
type Network struct {
	// Area is the deployment area (zero value for explicit-rate nets).
	Area geom.Rect
	// APs, Users, Sessions are the model entities; IDs equal indices.
	APs      []AP
	Users    []User
	Sessions []Session

	// BasicRateOnly restricts every multicast transmission to the
	// lowest rate, as the unmodified 802.11 standard does. The
	// problems stay NP-hard (§3.1) and all algorithms keep working.
	BasicRateOnly bool

	// Load converts a (stream rate, PHY rate) pair into channel load.
	// Defaults to the paper's ratio model.
	Load LoadModel

	// geometric records whether positions are meaningful (NewGeometric)
	// or the network came from an explicit rate matrix.
	geometric bool
	// table is the rate-vs-distance table geometric networks were
	// built from; MoveUser rederives link rates with it.
	table *radio.RateTable
	// grid indexes AP positions for geometric networks (cell = max
	// radio range), answering "which APs can reach this point" in
	// O(1); MoveUser re-buckets a user by querying it at the new
	// position. nil for explicit-rate networks, whose links never
	// rederive from geometry.
	grid *geom.Grid

	// Sparse adjacency — the primary link storage.
	//
	// adjUsers[a] / adjRates[a] are AP a's physical links, sorted by
	// user id. They are maintained even while the AP is down (fault.go)
	// so EnableAP can restore exactly the current links, including any
	// MoveUser churn that happened while the AP was dark.
	//
	// neighborAPs[u] / nbrRates[u] are the live per-user view, sorted
	// by AP id with down APs excluded. While an AP is up its physical
	// and live links coincide, so point lookups (LinkRate, TxRate,
	// Reachable) binary-search the short per-user list.
	adjUsers    [][]int
	adjRates    [][]radio.Mbps
	neighborAPs [][]int
	nbrRates    [][]radio.Mbps

	// rateSet is the ascending list of distinct nonzero live rates.
	rateSet []radio.Mbps
	// rateCount is the multiset behind rateSet (live links only), kept
	// so the dynamic mutation API can maintain rateSet incrementally.
	rateCount map[radio.Mbps]int
	// basicRate is the lowest rate of the rate set.
	basicRate radio.Mbps
	// rateLevels is the fixed ascending universe of rates a link can
	// ever carry: the rate table's rows (for geometric networks, the
	// only rates MoveUser can rederive) unioned with every physical
	// link rate present at construction. Mutations only produce table
	// rates (MoveUser) or restore construction rates (EnableAP), so
	// the list is immutable after finish. Tracker indexes its dense
	// per-(AP, session) occupancy counts by position in it.
	rateLevels []radio.Mbps
	// mvAPs/mvRates are MoveUser's reusable candidate scratch, keeping
	// the per-event hot path allocation-free.
	mvAPs   []int
	mvRates []radio.Mbps
	// down[a] marks AP a as failed (fault.go); nil until the first
	// DisableAP. Down APs keep
	// their physical adjacency rows but are excluded from every
	// derived index and accessor.
	down    []bool
	numDown int
}

// parallelChunk is the per-task user count for parallel construction:
// large enough that scheduling is noise, small enough that a 100k-user
// build fans out over every core.
const parallelChunk = 2048

// NewGeometric builds a network from node positions using the given
// rate-vs-distance table (the paper's Table 1 via radio.Table1).
// budget applies to every AP; sessions[u.Session] must exist.
//
// Construction is O(users x candidate APs), not O(users x APs): a
// uniform grid over the AP positions (cell = the table's maximum
// range) yields each user's candidates, and users are scanned in
// parallel chunks, so building a million-user network uses all cores
// and only O(links) memory.
func NewGeometric(area geom.Rect, apPos, userPos []geom.Point, userSession []int, sessions []Session, table *radio.RateTable, budget float64) (*Network, error) {
	if table == nil {
		return nil, fmt.Errorf("wlan: nil rate table")
	}
	if len(userPos) != len(userSession) {
		return nil, fmt.Errorf("wlan: %d user positions but %d session choices", len(userPos), len(userSession))
	}
	grid, err := geom.NewGrid(apPos, table.Range())
	if err != nil {
		return nil, fmt.Errorf("wlan: index AP positions: %w", err)
	}
	nbrAPs := make([][]int, len(userPos))
	nbrRates := make([][]radio.Mbps, len(userPos))
	// scan fills the candidate links of users [lo, hi). Chunks write
	// disjoint slices, so the parallel fan-out needs no locking and
	// the result is identical for any worker count.
	scan := func(lo, hi int, buf []int) {
		for u := lo; u < hi; u++ {
			buf = grid.Near(userPos[u], buf[:0])
			var aps []int
			var rates []radio.Mbps
			for _, a := range buf {
				if r, ok := table.RateFor(apPos[a].Dist(userPos[u])); ok {
					aps = append(aps, a)
					rates = append(rates, r)
				}
			}
			nbrAPs[u] = aps
			nbrRates[u] = rates
		}
	}
	if len(userPos) > parallelChunk {
		// One goroutine per chunk, at most one running per CPU.
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for lo := 0; lo < len(userPos); lo += parallelChunk {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer func() { <-sem; wg.Done() }()
				scan(lo, min(lo+parallelChunk, len(userPos)), make([]int, 0, 64))
			}()
		}
		wg.Wait()
	} else {
		scan(0, len(userPos), nil)
	}
	aps := make([]AP, len(apPos))
	for a := range aps {
		aps[a] = AP{ID: a, Pos: apPos[a], Budget: budget}
	}
	users := make([]User, len(userPos))
	for u := range users {
		users[u] = User{ID: u, Pos: userPos[u], Session: userSession[u]}
	}
	n := &Network{Area: area, APs: aps, Users: users, Sessions: sessions, Load: RatioLoad{},
		geometric: true, table: table, grid: grid, neighborAPs: nbrAPs, nbrRates: nbrRates}
	if err := n.finish(); err != nil {
		return nil, err
	}
	return n, nil
}

// NewGeometricDense is the brute-force reference constructor: it
// materializes the full APs x users rate matrix by scanning every
// pair, exactly like the pre-sparse implementation, and produces a
// network indistinguishable from NewGeometric's. It exists so the
// differential property suite can pin the grid-indexed build against
// ground truth and so the scale benchmark can measure what the sparse
// core saves; production callers always want NewGeometric.
func NewGeometricDense(area geom.Rect, apPos, userPos []geom.Point, userSession []int, sessions []Session, table *radio.RateTable, budget float64) (*Network, error) {
	if table == nil {
		return nil, fmt.Errorf("wlan: nil rate table")
	}
	if len(userPos) != len(userSession) {
		return nil, fmt.Errorf("wlan: %d user positions but %d session choices", len(userPos), len(userSession))
	}
	rates := make([][]radio.Mbps, len(apPos))
	for a := range rates {
		row := make([]radio.Mbps, len(userPos))
		for u := range userPos {
			if r, ok := table.RateFor(apPos[a].Dist(userPos[u])); ok {
				row[u] = r
			}
		}
		rates[a] = row
	}
	nbrAPs := make([][]int, len(userPos))
	nbrRates := make([][]radio.Mbps, len(userPos))
	for a, row := range rates {
		for u, r := range row {
			if r > 0 {
				nbrAPs[u] = append(nbrAPs[u], a)
				nbrRates[u] = append(nbrRates[u], r)
			}
		}
	}
	grid, err := geom.NewGrid(apPos, table.Range())
	if err != nil {
		return nil, fmt.Errorf("wlan: index AP positions: %w", err)
	}
	aps := make([]AP, len(apPos))
	for a := range aps {
		aps[a] = AP{ID: a, Pos: apPos[a], Budget: budget}
	}
	users := make([]User, len(userPos))
	for u := range users {
		users[u] = User{ID: u, Pos: userPos[u], Session: userSession[u]}
	}
	n := &Network{Area: area, APs: aps, Users: users, Sessions: sessions, Load: RatioLoad{},
		geometric: true, table: table, grid: grid, neighborAPs: nbrAPs, nbrRates: nbrRates}
	if err := n.finish(); err != nil {
		return nil, err
	}
	return n, nil
}

// NewFromRates builds a network from an explicit rate matrix
// rates[a][u] in Mbps with 0 meaning "out of range". It is how the
// paper's Figure 1 and Figure 4 examples are expressed, and the dense
// adapter onto the sparse core: the matrix is consumed into adjacency
// lists and never retained.
func NewFromRates(rates [][]radio.Mbps, userSession []int, sessions []Session, budget float64) (*Network, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("wlan: need at least one AP")
	}
	nUsers := len(rates[0])
	nbrAPs := make([][]int, nUsers)
	nbrRates := make([][]radio.Mbps, nUsers)
	for a, row := range rates {
		if len(row) != nUsers {
			return nil, fmt.Errorf("wlan: rate row %d has %d entries, want %d", a, len(row), nUsers)
		}
		for u, r := range row {
			if r < 0 {
				return nil, fmt.Errorf("wlan: negative rate %v for AP %d user %d", r, a, u)
			}
			if r > 0 {
				// Outer loop ascends over APs, so each user's list
				// arrives sorted.
				nbrAPs[u] = append(nbrAPs[u], a)
				nbrRates[u] = append(nbrRates[u], r)
			}
		}
	}
	if len(userSession) != nUsers {
		return nil, fmt.Errorf("wlan: %d users but %d session choices", nUsers, len(userSession))
	}
	aps := make([]AP, len(rates))
	for a := range aps {
		aps[a] = AP{ID: a, Budget: budget}
	}
	users := make([]User, nUsers)
	for u := range users {
		users[u] = User{ID: u, Session: userSession[u]}
	}
	n := &Network{APs: aps, Users: users, Sessions: sessions, Load: RatioLoad{},
		neighborAPs: nbrAPs, nbrRates: nbrRates}
	if err := n.finish(); err != nil {
		return nil, err
	}
	return n, nil
}

// finish validates entities, transposes the per-user candidate lists
// into per-AP adjacency, and derives the rate set. Callers have filled
// neighborAPs/nbrRates with sorted, positive-rate links.
func (n *Network) finish() error {
	if len(n.Sessions) == 0 {
		return fmt.Errorf("wlan: need at least one session")
	}
	for i, s := range n.Sessions {
		if s.ID != 0 && s.ID != i {
			return fmt.Errorf("wlan: session %d has ID %d", i, s.ID)
		}
		n.Sessions[i].ID = i
		if s.Rate <= 0 {
			return fmt.Errorf("wlan: session %d has non-positive rate %v", i, s.Rate)
		}
	}
	for a := range n.APs {
		if n.APs[a].Budget < 0 {
			return fmt.Errorf("wlan: AP %d has negative budget %v", a, n.APs[a].Budget)
		}
	}
	for u, usr := range n.Users {
		if usr.Session < 0 || usr.Session >= len(n.Sessions) {
			return fmt.Errorf("wlan: user %d requests unknown session %d", u, usr.Session)
		}
	}
	// Counting transpose: degree count, exact-capacity rows, then a
	// fill in ascending user order so each AP's list arrives sorted.
	// Rows get exactly their degree so a later insertPair reallocates
	// instead of growing into a neighbor's backing array.
	deg := make([]int, len(n.APs))
	for u := range n.neighborAPs {
		for _, a := range n.neighborAPs[u] {
			deg[a]++
		}
	}
	n.rateCount = make(map[radio.Mbps]int)
	n.adjUsers = make([][]int, len(n.APs))
	n.adjRates = make([][]radio.Mbps, len(n.APs))
	for a, d := range deg {
		if d > 0 {
			n.adjUsers[a] = make([]int, 0, d)
			n.adjRates[a] = make([]radio.Mbps, 0, d)
		}
	}
	for u := range n.neighborAPs {
		for i, a := range n.neighborAPs[u] {
			r := n.nbrRates[u][i]
			n.adjUsers[a] = append(n.adjUsers[a], u)
			n.adjRates[a] = append(n.adjRates[a], r)
			n.rateCount[r]++
		}
	}
	n.rebuildRateSet()
	// Freeze the rate-level universe (see the field comment). A map
	// dedups the union; the sorted result is what Tracker scans.
	seen := make(map[radio.Mbps]bool, len(n.rateCount)+8)
	for r := range n.rateCount {
		seen[r] = true
	}
	if n.table != nil {
		for _, r := range n.table.Rates() {
			seen[r] = true
		}
	}
	n.rateLevels = make([]radio.Mbps, 0, len(seen))
	for r := range seen {
		n.rateLevels = append(n.rateLevels, r)
	}
	sortRates(n.rateLevels)
	return nil
}

func sortRates(rs []radio.Mbps) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// NumAPs returns the AP count.
func (n *Network) NumAPs() int { return len(n.APs) }

// NumUsers returns the user count.
func (n *Network) NumUsers() int { return len(n.Users) }

// NumSessions returns the session count.
func (n *Network) NumSessions() int { return len(n.Sessions) }

// NumLinks returns the number of live AP-user links (down APs
// excluded). The sparse core's memory and construction time are
// O(NumLinks), not O(NumAPs x NumUsers).
func (n *Network) NumLinks() int {
	links := 0
	for u := range n.neighborAPs {
		links += len(n.neighborAPs[u])
	}
	return links
}

// linkAt returns the live rate of link a→u via the per-user adjacency
// (a must be up: down APs are absent from the live lists).
func (n *Network) linkAt(u, a int) (radio.Mbps, bool) {
	nb := n.neighborAPs[u]
	i := sort.SearchInts(nb, a)
	if i < len(nb) && nb[i] == a {
		return n.nbrRates[u][i], true
	}
	return 0, false
}

// LinkRate returns the maximum PHY rate from AP a to user u (0 when
// out of range or the AP is down). This is r_{a,u} of the paper.
func (n *Network) LinkRate(a, u int) radio.Mbps {
	if n.APDown(a) {
		return 0
	}
	r, _ := n.linkAt(u, a)
	return r
}

// Reachable reports whether user u is in range of AP a (false while
// the AP is down).
func (n *Network) Reachable(a, u int) bool {
	if n.APDown(a) {
		return false
	}
	_, ok := n.linkAt(u, a)
	return ok
}

// TxRate returns the PHY rate AP a would use toward user u for
// multicast: the link rate normally, the basic rate in basic-rate-only
// mode. The second result is false when u is out of range.
func (n *Network) TxRate(a, u int) (radio.Mbps, bool) {
	if n.APDown(a) {
		return 0, false
	}
	r, ok := n.linkAt(u, a)
	if !ok {
		return 0, false
	}
	if n.BasicRateOnly {
		return n.basicRate, true
	}
	return r, true
}

// RateSet returns the distinct usable rates in ascending order. In
// basic-rate-only mode that is just the basic rate. The slice is a
// copy.
func (n *Network) RateSet() []radio.Mbps {
	if n.BasicRateOnly {
		if n.basicRate == 0 {
			return nil
		}
		return []radio.Mbps{n.basicRate}
	}
	return append([]radio.Mbps(nil), n.rateSet...)
}

// BasicRate returns the lowest usable rate (0 if no link exists at
// all).
func (n *Network) BasicRate() radio.Mbps { return n.basicRate }

// NeighborAPs returns the APs within range of user u, ascending by ID.
// The slice is shared; callers must not modify it.
func (n *Network) NeighborAPs(u int) []int { return n.neighborAPs[u] }

// Coverage returns the users within range of AP a, ascending by ID;
// empty while the AP is down. The slice is shared; callers must not
// modify it.
func (n *Network) Coverage(a int) []int {
	if n.APDown(a) {
		return nil
	}
	return n.adjUsers[a]
}

// SessionRate returns the stream bitrate of session s.
func (n *Network) SessionRate(s int) radio.Mbps { return n.Sessions[s].Rate }

// UserSession returns the session requested by user u.
func (n *Network) UserSession(u int) int { return n.Users[u].Session }

// Coverable reports whether at least one AP can reach user u.
func (n *Network) Coverable(u int) bool { return len(n.neighborAPs[u]) > 0 }

// Geometric reports whether node positions are meaningful (the network
// was built from geometry rather than an explicit rate matrix).
func (n *Network) Geometric() bool { return n.geometric }

// Distance returns the AP-user distance in meters for geometric
// networks (0 otherwise).
func (n *Network) Distance(a, u int) float64 {
	if !n.geometric {
		return 0
	}
	return n.APs[a].Pos.Dist(n.Users[u].Pos)
}

// SessionLoad returns the load AP a incurs by serving session s at PHY
// rate txRate, under the network's load model.
func (n *Network) SessionLoad(s int, txRate radio.Mbps) float64 {
	return n.Load.SessionLoad(n.Sessions[s].Rate, txRate)
}
