package wlan

import (
	"fmt"
	"sort"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
)

// Dynamic mutation API.
//
// A Network is immutable under the batch algorithms, but the online
// association engine (internal/engine) applies churn — users joining,
// leaving, moving, switching sessions — to one long-lived instance.
// The methods below mutate a single user's links and keep every
// derived index (neighbor sets, coverage lists, rate set, basic rate)
// consistent, in O(candidate APs x log) per call instead of a full
// rebuild: a moved user re-buckets through the grid index, so the
// cost is independent of the AP count.
//
// Contract: the mutated user must not be associated in any live
// Tracker while its rates or session change — the tracker's per-AP
// rate multisets would silently corrupt. Disassociate first, mutate,
// then re-decide. Mutating a BasicRateOnly network can additionally
// change the basic rate itself, which invalidates every tracked load;
// the engine refuses such networks.

// MoveUser relocates user u to pos and rederives its link rates from
// the rate table the network was built with, using the grid index to
// find the candidate APs at the new position. It is only available for
// geometric networks (NewGeometric or a geometric scenario Spec).
func (n *Network) MoveUser(u int, pos geom.Point) error {
	if !n.geometric {
		return fmt.Errorf("wlan: MoveUser on a non-geometric network")
	}
	if u < 0 || u >= len(n.Users) {
		return fmt.Errorf("wlan: MoveUser: unknown user %d", u)
	}
	// The candidate and rate buffers are per-network scratch: Near
	// appends into the reused backing array and setUserLinks does not
	// retain its arguments, so steady-state moves allocate nothing.
	cand := n.grid.Near(pos, n.mvAPs[:0])
	aps := cand[:0]
	rates := n.mvRates[:0]
	for _, a := range cand {
		if r, ok := n.table.RateFor(n.APs[a].Pos.Dist(pos)); ok {
			aps = append(aps, a)
			rates = append(rates, r)
		}
	}
	n.Users[u].Pos = pos
	n.setUserLinks(u, aps, rates)
	// aps is a prefix of cand, so cand carries the grown capacity.
	n.mvAPs, n.mvRates = cand[:0], rates[:0]
	return nil
}

// DetachUser removes all of user u's links, taking it out of range of
// every AP. The engine uses it to model users that left the network:
// a detached user has no neighbors, so every algorithm ignores it.
func (n *Network) DetachUser(u int) error {
	if u < 0 || u >= len(n.Users) {
		return fmt.Errorf("wlan: DetachUser: unknown user %d", u)
	}
	n.setUserLinks(u, nil, nil)
	return nil
}

// SetUserSession switches user u to session s.
func (n *Network) SetUserSession(u, s int) error {
	if u < 0 || u >= len(n.Users) {
		return fmt.Errorf("wlan: SetUserSession: unknown user %d", u)
	}
	if s < 0 || s >= len(n.Sessions) {
		return fmt.Errorf("wlan: SetUserSession: unknown session %d", s)
	}
	n.Users[u].Session = s
	return nil
}

// setUserLinks installs (aps, rates) — sorted by AP id, positive
// rates — as user u's complete physical link set and updates the
// adjacency and rate-set indices by diffing against the previous set.
// Links of down APs take the physical update (their adjacency row)
// only: the live indices and the rate multiset exclude them until
// EnableAP restores the row wholesale.
func (n *Network) setUserLinks(u int, aps []int, rates []radio.Mbps) {
	oldAPs, oldRates := n.neighborAPs[u], n.nbrRates[u]
	if n.numDown > 0 {
		// The live list omits down APs, but the diff below must see the
		// full physical set or it would re-add a link that already
		// exists in a dark AP's row.
		oldAPs, oldRates = n.physLinks(u)
	}
	rateSetDirty := false
	i, j := 0, 0
	for i < len(oldAPs) || j < len(aps) {
		switch {
		case j == len(aps) || (i < len(oldAPs) && oldAPs[i] < aps[j]):
			// Link gone at the new position.
			a := oldAPs[i]
			n.adjUsers[a], n.adjRates[a] = removePair(n.adjUsers[a], n.adjRates[a], u)
			if !n.APDown(a) {
				rateSetDirty = n.decRate(oldRates[i]) || rateSetDirty
			}
			i++
		case i == len(oldAPs) || aps[j] < oldAPs[i]:
			// New link.
			a := aps[j]
			n.adjUsers[a], n.adjRates[a] = insertPair(n.adjUsers[a], n.adjRates[a], u, rates[j])
			if !n.APDown(a) {
				rateSetDirty = n.incRate(rates[j]) || rateSetDirty
			}
			j++
		default:
			// Same AP, possibly a new rate.
			a := oldAPs[i]
			if oldRates[i] != rates[j] {
				setPairRate(n.adjUsers[a], n.adjRates[a], u, rates[j])
				if !n.APDown(a) {
					rateSetDirty = n.decRate(oldRates[i]) || rateSetDirty
					rateSetDirty = n.incRate(rates[j]) || rateSetDirty
				}
			}
			i++
			j++
		}
	}
	// Rebuild the live per-user view: the new links minus down APs.
	nb := n.neighborAPs[u][:0]
	rs := n.nbrRates[u][:0]
	for k, a := range aps {
		if !n.APDown(a) {
			nb = append(nb, a)
			rs = append(rs, rates[k])
		}
	}
	n.neighborAPs[u], n.nbrRates[u] = nb, rs
	if rateSetDirty {
		n.rebuildRateSet()
	}
}

// physLinks returns user u's full physical link set — the live list
// merged with any links sitting in down APs' adjacency rows — as
// freshly allocated sorted slices. O(down APs x log coverage).
func (n *Network) physLinks(u int) ([]int, []radio.Mbps) {
	var darkAPs []int
	var darkRates []radio.Mbps
	for a, d := range n.down {
		if !d {
			continue
		}
		if i := sort.SearchInts(n.adjUsers[a], u); i < len(n.adjUsers[a]) && n.adjUsers[a][i] == u {
			darkAPs = append(darkAPs, a)
			darkRates = append(darkRates, n.adjRates[a][i])
		}
	}
	live, liveRates := n.neighborAPs[u], n.nbrRates[u]
	if len(darkAPs) == 0 {
		return live, liveRates
	}
	// Merge two ascending runs (live never contains a down AP, so the
	// runs are disjoint).
	aps := make([]int, 0, len(live)+len(darkAPs))
	rates := make([]radio.Mbps, 0, len(live)+len(darkAPs))
	i, j := 0, 0
	for i < len(live) || j < len(darkAPs) {
		if j == len(darkAPs) || (i < len(live) && live[i] < darkAPs[j]) {
			aps = append(aps, live[i])
			rates = append(rates, liveRates[i])
			i++
		} else {
			aps = append(aps, darkAPs[j])
			rates = append(rates, darkRates[j])
			j++
		}
	}
	return aps, rates
}

// incRate adds one live link at rate r to the multiset; reports
// whether the distinct-rate set changed.
func (n *Network) incRate(r radio.Mbps) bool {
	dirty := n.rateCount[r] == 0
	n.rateCount[r]++
	return dirty
}

// decRate removes one live link at rate r from the multiset; reports
// whether the distinct-rate set changed.
func (n *Network) decRate(r radio.Mbps) bool {
	n.rateCount[r]--
	if n.rateCount[r] == 0 {
		delete(n.rateCount, r)
		return true
	}
	return false
}

// rebuildRateSet rederives the ascending distinct-rate list and the
// basic rate from the live rate multiset.
func (n *Network) rebuildRateSet() {
	n.rateSet = n.rateSet[:0]
	for r := range n.rateCount {
		n.rateSet = append(n.rateSet, r)
	}
	sortRates(n.rateSet)
	if len(n.rateSet) > 0 {
		n.basicRate = n.rateSet[0]
	} else {
		n.basicRate = 0
	}
}

// insertPair inserts (id, r) into the parallel sorted pair (ids,
// rates), overwriting the rate if id is already present.
func insertPair(ids []int, rates []radio.Mbps, id int, r radio.Mbps) ([]int, []radio.Mbps) {
	i := sort.SearchInts(ids, id)
	if i < len(ids) && ids[i] == id {
		rates[i] = r
		return ids, rates
	}
	ids = append(ids, 0)
	rates = append(rates, 0)
	copy(ids[i+1:], ids[i:])
	copy(rates[i+1:], rates[i:])
	ids[i] = id
	rates[i] = r
	return ids, rates
}

// removePair deletes id (and its rate) from the parallel sorted pair;
// a missing id is a no-op.
func removePair(ids []int, rates []radio.Mbps, id int) ([]int, []radio.Mbps) {
	i := sort.SearchInts(ids, id)
	if i == len(ids) || ids[i] != id {
		return ids, rates
	}
	return append(ids[:i], ids[i+1:]...), append(rates[:i], rates[i+1:]...)
}

// setPairRate overwrites id's rate in the parallel sorted pair; a
// missing id is a no-op.
func setPairRate(ids []int, rates []radio.Mbps, id int, r radio.Mbps) {
	if i := sort.SearchInts(ids, id); i < len(ids) && ids[i] == id {
		rates[i] = r
	}
}
