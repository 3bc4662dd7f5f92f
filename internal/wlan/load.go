package wlan

import (
	"encoding/json"
	"fmt"

	"wlanmcast/internal/radio"
)

// LoadModel converts a multicast stream and the PHY rate it is
// transmitted at into channel load (fraction of airtime).
type LoadModel interface {
	// SessionLoad returns the load of streaming streamRate Mbps at PHY
	// rate txRate Mbps.
	SessionLoad(streamRate, txRate radio.Mbps) float64
}

// RatioLoad is the paper's load model (Definition 1): load equals
// stream rate divided by transmission rate.
type RatioLoad struct{}

var _ LoadModel = RatioLoad{}

// SessionLoad implements LoadModel.
func (RatioLoad) SessionLoad(streamRate, txRate radio.Mbps) float64 {
	if txRate <= 0 {
		return 0
	}
	return float64(streamRate) / float64(txRate)
}

// AirtimeLoad charges real 802.11a per-frame overhead on top of payload
// time. It makes high PHY rates relatively less attractive than the
// ratio model, which is the ablation DESIGN.md calls out.
type AirtimeLoad struct {
	// Model is the frame timing; zero value is not valid, use
	// radio.Default80211a.
	Model radio.AirtimeModel
	// PayloadBytes is the frame payload size (e.g. 1472).
	PayloadBytes int
}

var _ LoadModel = AirtimeLoad{}

// SessionLoad implements LoadModel. Invalid configurations yield 0 load
// for unreachable rates, matching RatioLoad's contract.
func (l AirtimeLoad) SessionLoad(streamRate, txRate radio.Mbps) float64 {
	if txRate <= 0 {
		return 0
	}
	v, err := l.Model.Load(streamRate, l.PayloadBytes, txRate)
	if err != nil {
		return 0
	}
	return v
}

// Assoc is a complete association decision: for every user, the AP it
// receives its multicast session from, or Unassociated. An Assoc knows
// nothing about loads; pair it with the Network to evaluate.
type Assoc struct {
	apOf []int
}

// NewAssoc returns an association with every user unassociated.
func NewAssoc(numUsers int) *Assoc {
	a := &Assoc{apOf: make([]int, numUsers)}
	for i := range a.apOf {
		a.apOf[i] = Unassociated
	}
	return a
}

// APOf returns the AP user u is associated with, or Unassociated.
func (a *Assoc) APOf(u int) int { return a.apOf[u] }

// Associate assigns user u to AP ap (or Unassociated).
func (a *Assoc) Associate(u, ap int) { a.apOf[u] = ap }

// NumUsers returns the number of users covered by this association.
func (a *Assoc) NumUsers() int { return len(a.apOf) }

// SatisfiedCount returns how many users are associated.
func (a *Assoc) SatisfiedCount() int {
	n := 0
	for _, ap := range a.apOf {
		if ap != Unassociated {
			n++
		}
	}
	return n
}

// Clone returns a deep copy.
func (a *Assoc) Clone() *Assoc {
	return &Assoc{apOf: append([]int(nil), a.apOf...)}
}

// MarshalJSON encodes the association as the per-user AP array
// (Unassociated encoded as -1).
func (a *Assoc) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.apOf)
}

// UnmarshalJSON decodes the per-user AP array form. Any id below the
// Unassociated sentinel (-1) is rejected; a JSON null is rejected
// rather than silently producing a zero-user association. Range
// checking against an AP count needs network context — use
// DecodeAssoc when the association arrives over the wire.
func (a *Assoc) UnmarshalJSON(data []byte) error {
	var apOf []int
	if err := json.Unmarshal(data, &apOf); err != nil {
		return fmt.Errorf("wlan: decode association: %w", err)
	}
	if apOf == nil {
		return fmt.Errorf("wlan: decode association: null is not an association")
	}
	for u, ap := range apOf {
		if ap < Unassociated {
			return fmt.Errorf("wlan: decode association: user %d has negative AP id %d", u, ap)
		}
	}
	a.apOf = apOf
	return nil
}

// DecodeAssoc decodes a JSON association and validates it against the
// given network shape: exactly numUsers entries, every AP id either
// Unassociated or in [0, numAPs). Untrusted input (the assocd HTTP
// server) must come through here, not bare UnmarshalJSON, which
// cannot know the AP count.
func DecodeAssoc(data []byte, numAPs, numUsers int) (*Assoc, error) {
	var a Assoc
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	if a.NumUsers() != numUsers {
		return nil, fmt.Errorf("wlan: decode association: %d entries, network has %d users", a.NumUsers(), numUsers)
	}
	for u, ap := range a.apOf {
		if ap >= numAPs {
			return nil, fmt.Errorf("wlan: decode association: user %d has out-of-range AP %d (network has %d APs)", u, ap, numAPs)
		}
	}
	return &a, nil
}

// Equal reports whether two associations assign every user identically.
func (a *Assoc) Equal(b *Assoc) bool {
	if len(a.apOf) != len(b.apOf) {
		return false
	}
	for i := range a.apOf {
		if a.apOf[i] != b.apOf[i] {
			return false
		}
	}
	return true
}

// homed reports whether user u is associated with ap.
func (a *Assoc) homed(u, ap int) bool { return a.apOf[u] == ap }

// apQuanta computes the multicast load of AP ap when homed(u, ap)
// tells which of its covered users it serves: for each session with at
// least one served user, the AP transmits at the slowest of those
// users' rates (so everyone can decode), and the loads add up
// (Definition 1). It sums the same quanta a Tracker does, so the two
// agree bit for bit. minRate is per-session scratch. Iterating the
// AP's adjacency row reads each tx rate in place instead of
// binary-searching per user via TxRate.
func (n *Network) apQuanta(ap int, homed func(u, ap int) bool, minRate []radio.Mbps) Quanta {
	if n.APDown(ap) {
		return 0
	}
	clear(minRate)
	for i, u := range n.adjUsers[ap] {
		if !homed(u, ap) {
			continue
		}
		r := n.adjRates[ap][i]
		if n.BasicRateOnly {
			r = n.basicRate
		}
		if s := n.Users[u].Session; minRate[s] == 0 || r < minRate[s] {
			minRate[s] = r
		}
	}
	var q Quanta
	for s, r := range minRate {
		if r > 0 {
			q += n.quanta(s, r)
		}
	}
	return q
}

// loadTotals returns the sum and the maximum of every AP's apQuanta.
func (n *Network) loadTotals(homed func(u, ap int) bool) (total, peak Quanta) {
	minRate := make([]radio.Mbps, len(n.Sessions))
	for ap := range n.APs {
		q := n.apQuanta(ap, homed, minRate)
		total += q
		peak = max(peak, q)
	}
	return total, peak
}

// APLoad computes the multicast load of AP ap under association a
// (Definition 1; see apQuanta).
func (n *Network) APLoad(a *Assoc, ap int) float64 {
	return n.apQuanta(ap, a.homed, make([]radio.Mbps, len(n.Sessions))).Load()
}

// TotalLoad returns the sum of all AP loads (the MLA objective).
func (n *Network) TotalLoad(a *Assoc) float64 {
	total, _ := n.loadTotals(a.homed)
	return total.Load()
}

// MaxLoad returns the maximum AP load (the BLA objective).
func (n *Network) MaxLoad(a *Assoc) float64 {
	_, peak := n.loadTotals(a.homed)
	return peak.Load()
}

// LoadVector returns all AP loads sorted in non-increasing order, the
// comparison object of the distributed BLA rule (§5.2).
func (n *Network) LoadVector(a *Assoc) []float64 {
	v := make([]float64, len(n.APs))
	for ap := range n.APs {
		v[ap] = n.APLoad(a, ap)
	}
	sortDesc(v)
	return v
}

func sortDesc(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// CompareLoadVectors compares two non-increasing load vectors per the
// paper's footnote 5: the first unequal position decides; -1 means a is
// smaller (better for BLA), 0 equal, +1 larger. Vectors must have equal
// length.
func CompareLoadVectors(a, b []float64) int {
	return CompareLoadVectorsEps(a, b, loadEps)
}

// CompareLoadVectorsEps is CompareLoadVectors with an explicit
// tolerance: positions within eps of each other compare equal. The
// online engine uses it with its hysteresis threshold so a BLA user
// only moves when the sorted vector improves by more than the
// threshold, damping Figure-4-style oscillation under churn.
func CompareLoadVectorsEps(a, b []float64, eps float64) int {
	if eps < loadEps {
		eps = loadEps
	}
	for i := range a {
		switch {
		case a[i] < b[i]-eps:
			return -1
		case a[i] > b[i]+eps:
			return 1
		}
	}
	return 0
}

// loadEps absorbs floating-point noise when comparing loads.
const loadEps = 1e-12

// budgetEps is how far past its budget an AP's load may go and still
// count as within it: the tolerance of every admission decision and of
// the budget checks of Validate and ValidateMulti, so an association
// the algorithms built always validates.
const budgetEps = 1e-9

// WithinBudget reports whether load fits AP ap's budget.
func (n *Network) WithinBudget(ap int, load float64) bool {
	return load <= n.APs[ap].Budget+budgetEps
}

// Validate checks that association a is well-formed for network n:
// every associated user is in range of its AP, and optionally that
// every AP load stays within its budget.
func (n *Network) Validate(a *Assoc, enforceBudgets bool) error {
	if a.NumUsers() != len(n.Users) {
		return fmt.Errorf("wlan: association covers %d users, network has %d", a.NumUsers(), len(n.Users))
	}
	for u, ap := range a.apOf {
		if ap == Unassociated {
			continue
		}
		if ap < 0 || ap >= len(n.APs) {
			return fmt.Errorf("wlan: user %d associated with unknown AP %d", u, ap)
		}
		if !n.Reachable(ap, u) {
			return fmt.Errorf("wlan: user %d associated with out-of-range AP %d", u, ap)
		}
	}
	if enforceBudgets {
		for ap := range n.APs {
			if l := n.APLoad(a, ap); !n.WithinBudget(ap, l) {
				return fmt.Errorf("wlan: AP %d load %v exceeds budget %v", ap, l, n.APs[ap].Budget)
			}
		}
	}
	return nil
}

// FullyAssociated reports whether every coverable user is associated.
func (n *Network) FullyAssociated(a *Assoc) bool {
	for u := range n.Users {
		if a.apOf[u] == Unassociated && n.Coverable(u) {
			return false
		}
	}
	return true
}
