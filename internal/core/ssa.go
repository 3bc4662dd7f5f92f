package core

import (
	"wlanmcast/internal/wlan"
)

// SSA is the paper's baseline: every user associates with the AP whose
// signal is strongest (the nearest AP in a geometric network; the
// highest-rate AP when only a rate matrix is known, since under any
// monotone path-loss model a higher usable rate means a stronger
// signal). Users decide in increasing ID order, one by one.
type SSA struct {
	// EnforceBudget drops a user entirely when its strongest AP
	// cannot take it within the AP's load budget — the paper's MNU
	// comparison ("u2, u4, u5 can not be associated with APs because
	// of the load limitation"). SSA never considers a different AP:
	// signal strength is its only criterion.
	EnforceBudget bool
}

var _ Algorithm = (*SSA)(nil)

// Name implements Algorithm.
func (s *SSA) Name() string { return "SSA" }

// Run implements Algorithm.
func (s *SSA) Run(n *wlan.Network) (*wlan.Assoc, error) {
	tr, err := wlan.NewTracker(n, nil)
	if err != nil {
		return nil, err
	}
	for u := 0; u < n.NumUsers(); u++ {
		ap := StrongestAP(n, u)
		if ap == wlan.Unassociated {
			continue
		}
		if s.EnforceBudget {
			load, _, ok := tr.LoadIfJoin(u, ap)
			if !ok || !n.WithinBudget(ap, load) {
				continue
			}
		}
		if err := tr.AddHome(u, ap); err != nil {
			return nil, err
		}
	}
	return tr.Assoc(), nil
}

// StrongestAP returns the strongest-signal AP for user u, or
// wlan.Unassociated when u is out of everyone's range. Ties break
// toward the lower AP ID (a deterministic stand-in for the arbitrary
// tie-breaking of real hardware).
func StrongestAP(n *wlan.Network, u int) int {
	best := wlan.Unassociated
	for _, a := range n.NeighborAPs(u) {
		if best == wlan.Unassociated {
			best = a
			continue
		}
		if strongerSignal(n, u, a, best) {
			best = a
		}
	}
	return best
}

// strongerSignal reports whether AP a has strictly stronger signal
// than AP b toward user u.
func strongerSignal(n *wlan.Network, u, a, b int) bool {
	if n.Geometric() {
		return n.Distance(a, u) < n.Distance(b, u)
	}
	return n.LinkRate(a, u) > n.LinkRate(b, u)
}
