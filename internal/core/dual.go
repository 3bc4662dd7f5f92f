package core

import (
	"fmt"

	"wlanmcast/internal/wlan"
)

// §3.1 adopts the dual-association framework of Lee, Chandrasekaran
// and Sinha [16] for users that are unicast and multicast clients at
// once: "each user independently selects one AP for unicast and
// another one for multicast services" (the APs being time-
// synchronized). DualAssociate implements it: the multicast side runs
// any association-control Algorithm from this package, the unicast
// side follows the strongest signal (the right default for unicast —
// it maximizes the user's own PHY rate), and the two need not agree.

// DualResult is a combined unicast + multicast association.
type DualResult struct {
	// Multicast is the association computed by the multicast
	// algorithm; Unicast is the strongest-signal association.
	Multicast, Unicast *wlan.Assoc
	// SplitUsers counts users whose two APs differ — the users for
	// whom dual association actually changes anything.
	SplitUsers int
	// CombinedLoad[ap] is multicast load plus unicast airtime
	// (demand / link rate summed over the AP's unicast users).
	CombinedLoad []float64
}

// TotalCombined returns the summed combined load.
func (r *DualResult) TotalCombined() float64 {
	t := 0.0
	for _, l := range r.CombinedLoad {
		t += l
	}
	return t
}

// DualAssociate runs mcast for the multicast side and strongest-
// signal for the unicast side. unicastDemand[u] is user u's unicast
// demand in Mbps (nil means zero for everyone).
func DualAssociate(n *wlan.Network, mcast Algorithm, unicastDemand []float64) (*DualResult, error) {
	if unicastDemand != nil && len(unicastDemand) != n.NumUsers() {
		return nil, fmt.Errorf("core: %d unicast demands for %d users", len(unicastDemand), n.NumUsers())
	}
	multicast, err := mcast.Run(n)
	if err != nil {
		return nil, err
	}
	unicast := wlan.NewAssoc(n.NumUsers())
	for u := 0; u < n.NumUsers(); u++ {
		unicast.Associate(u, StrongestAP(n, u))
	}
	res := &DualResult{Multicast: multicast, Unicast: unicast}
	res.CombinedLoad = combinedLoad(n, multicast, unicast, unicastDemand)
	for u := 0; u < n.NumUsers(); u++ {
		mc, uc := multicast.APOf(u), unicast.APOf(u)
		if mc != wlan.Unassociated && uc != wlan.Unassociated && mc != uc {
			res.SplitUsers++
		}
	}
	return res, nil
}

// SingleAssociate evaluates the no-dual baseline: the user's unicast
// traffic must go through its multicast AP (or its strongest AP when
// it has no multicast service).
func SingleAssociate(n *wlan.Network, mcast Algorithm, unicastDemand []float64) (*DualResult, error) {
	if unicastDemand != nil && len(unicastDemand) != n.NumUsers() {
		return nil, fmt.Errorf("core: %d unicast demands for %d users", len(unicastDemand), n.NumUsers())
	}
	multicast, err := mcast.Run(n)
	if err != nil {
		return nil, err
	}
	unicast := wlan.NewAssoc(n.NumUsers())
	for u := 0; u < n.NumUsers(); u++ {
		if ap := multicast.APOf(u); ap != wlan.Unassociated {
			unicast.Associate(u, ap)
		} else {
			unicast.Associate(u, StrongestAP(n, u))
		}
	}
	res := &DualResult{Multicast: multicast, Unicast: unicast}
	res.CombinedLoad = combinedLoad(n, multicast, unicast, unicastDemand)
	return res, nil
}

// combinedLoad charges each AP its multicast load plus its unicast
// users' airtime at their link rates.
func combinedLoad(n *wlan.Network, multicast, unicast *wlan.Assoc, demand []float64) []float64 {
	loads := make([]float64, n.NumAPs())
	for ap := range loads {
		loads[ap] = n.APLoad(multicast, ap)
	}
	if demand == nil {
		return loads
	}
	for u := 0; u < n.NumUsers(); u++ {
		ap := unicast.APOf(u)
		if ap == wlan.Unassociated || demand[u] <= 0 {
			continue
		}
		rate := n.LinkRate(ap, u)
		if rate > 0 {
			loads[ap] += demand[u] / float64(rate)
		}
	}
	return loads
}
