package wlan

import "fmt"

// AP availability API.
//
// An AP crash is the dominant real-world WLAN failure, and the fault
// layer (internal/fault, engine EvAPDown/EvAPUp) models it by taking
// APs administratively down and back up on a live Network. A down AP
// keeps its physical adjacency row — recovery must restore exactly the
// pre-failure links, including any MoveUser churn that happened while
// it was dark — but it vanishes from every derived index and
// accessor: Reachable/TxRate/LinkRate report "out of range",
// NeighborAPs(u) omits it, Coverage(a) is empty, and the rate set
// counts only live links. Every algorithm therefore treats the
// network exactly as if the AP had never existed, which is the
// invariant the engine's fault property test pins (snapshot equals a
// batch run on the explicitly-built surviving subnetwork).
//
// Contract, mirroring the dynamic user API: the AP must have no
// associated users in any live Tracker when DisableAP runs — callers
// disassociate first (while TxRate still resolves), then disable.
// EnableAP has no such constraint. Both are O(covered users x log)
// incremental updates, never a full rebuild.

// DisableAP takes AP a down: its links disappear from the neighbor
// and rate-set indices and its Coverage reads empty, while the
// physical adjacency row stays put for EnableAP. Disabling a down AP
// is an error.
func (n *Network) DisableAP(a int) error {
	if a < 0 || a >= len(n.APs) {
		return fmt.Errorf("wlan: DisableAP: unknown AP %d", a)
	}
	if n.APDown(a) {
		return fmt.Errorf("wlan: DisableAP: AP %d is already down", a)
	}
	if n.down == nil {
		n.down = make([]bool, len(n.APs))
	}
	rateSetDirty := false
	for i, u := range n.adjUsers[a] {
		rateSetDirty = n.decRate(n.adjRates[a][i]) || rateSetDirty
		n.neighborAPs[u], n.nbrRates[u] = removePair(n.neighborAPs[u], n.nbrRates[u], a)
	}
	n.down[a] = true
	n.numDown++
	if rateSetDirty {
		n.rebuildRateSet()
	}
	return nil
}

// EnableAP brings AP a back up, restoring its current physical links
// (which MoveUser kept maintaining while the AP was down) into all
// derived indices. Enabling an up AP is an error.
func (n *Network) EnableAP(a int) error {
	if a < 0 || a >= len(n.APs) {
		return fmt.Errorf("wlan: EnableAP: unknown AP %d", a)
	}
	if !n.APDown(a) {
		return fmt.Errorf("wlan: EnableAP: AP %d is not down", a)
	}
	n.down[a] = false
	n.numDown--
	rateSetDirty := false
	for i, u := range n.adjUsers[a] {
		r := n.adjRates[a][i]
		rateSetDirty = n.incRate(r) || rateSetDirty
		n.neighborAPs[u], n.nbrRates[u] = insertPair(n.neighborAPs[u], n.nbrRates[u], a, r)
	}
	if rateSetDirty {
		n.rebuildRateSet()
	}
	return nil
}

// APDown reports whether AP a is currently down.
func (n *Network) APDown(a int) bool { return n.down != nil && n.down[a] }

// NumAPsDown returns how many APs are currently down.
func (n *Network) NumAPsDown() int { return n.numDown }

// DownAPs returns the IDs of the currently down APs, ascending.
func (n *Network) DownAPs() []int {
	if n.numDown == 0 {
		return nil
	}
	out := make([]int, 0, n.numDown)
	for a, d := range n.down {
		if d {
			out = append(out, a)
		}
	}
	return out
}
