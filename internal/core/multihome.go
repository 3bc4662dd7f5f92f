package core

import (
	"fmt"

	"wlanmcast/internal/wlan"
)

// StrongestOf returns the strongest-signal AP for user u among aps
// (SSA's ordering: distance on geometric networks, link rate
// otherwise; first-listed wins ties), or wlan.Unassociated for an
// empty list. The engine uses it to pick a deterministic primary when
// an externally supplied AP set is installed.
func StrongestOf(n *wlan.Network, u int, aps []int) int {
	best := wlan.Unassociated
	for _, a := range aps {
		if best == wlan.Unassociated || strongerSignal(n, u, a, best) {
			best = a
		}
	}
	return best
}

// AugmentHomes derives a multi-association from a primary single-AP
// association: every primary assignment is kept verbatim, then up to
// maxHomes-1 secondary homes are added per user. Two passes, both in
// ascending user/AP order, and every load comparison is count-pure (a
// wlan.Tracker capped at maxHomes: a function of the AP's occupancy
// counts alone), so the result is a pure deterministic function of the
// inputs — the engine's determinism and crash-recovery byte-identity
// both lean on that.
//
// Pass 1 (KeptHomes) grandfathers prev (the previous derivation's
// secondary sets, nil for a from-scratch run): a previous secondary is
// kept as long as its AP is up and reachable, it is not the new
// primary, and the degree cap allows it — with no budget re-check.
// This is the degradation semantics: when a user's primary AP fails
// and budgets block single-AP rehoming, its surviving secondaries keep
// it served at a reduced aggregate rate instead of orphaning it; and
// once admitted, a secondary is not flapped away by load noise
// (grandfathering is the hysteresis of the multi-homing layer).
//
// Pass 2 (FillHomes) fills: users already served (primary or
// grandfathered) and below the degree cap gain the cheapest-delta
// reachable new home, sweeping until stable — but only under the AP's
// budget, always, regardless of the inner algorithm's EnforceBudget:
// redundancy must never push an AP past its admission limit. Unserved
// users are left alone; admitting new users is the primary
// algorithm's job.
//
// This is DeriveHomes — a fresh tracker with every user dirty —
// materialized. The engine runs an exact incremental twin: it keeps
// the tracker across calls and re-runs the two passes over only the
// users a call touched (see internal/engine/multihome.go).
//
// Returns the merged multi-association and the per-user secondary
// sets (primary excluded, sorted ascending, nil for none).
func AugmentHomes(n *wlan.Network, primary *wlan.Assoc, prev [][]int, maxHomes int) (*wlan.MultiAssoc, [][]int, error) {
	tr, err := DeriveHomes(n, primary, prev, maxHomes)
	if err != nil {
		return nil, nil, err
	}
	ma := tr.MultiAssoc()
	sec := make([][]int, n.NumUsers())
	for u := 0; u < n.NumUsers(); u++ {
		p := primary.APOf(u)
		for _, ap := range ma.Homes(u) {
			if ap != p {
				sec[u] = append(sec[u], ap)
			}
		}
	}
	return ma, sec, nil
}

// DeriveHomes runs AugmentHomes' two passes over every user on a fresh
// tracker capped at maxHomes and returns it.
func DeriveHomes(n *wlan.Network, primary *wlan.Assoc, prev [][]int, maxHomes int) (*wlan.Tracker, error) {
	if primary.NumUsers() != n.NumUsers() {
		return nil, fmt.Errorf("core: augment homes: primary covers %d users, network has %d", primary.NumUsers(), n.NumUsers())
	}
	if prev != nil && len(prev) != n.NumUsers() {
		return nil, fmt.Errorf("core: augment homes: %d previous secondary sets for %d users", len(prev), n.NumUsers())
	}
	if maxHomes < 1 {
		maxHomes = 1
	}
	tr, err := wlan.NewCappedTracker(n, maxHomes, nil)
	if err != nil {
		return nil, err
	}
	all := make([]int, n.NumUsers())
	var kept, prevSec []int
	for u := range all {
		all[u] = u
		if prev != nil {
			prevSec = prev[u]
		}
		kept = KeptHomes(n, u, primary.APOf(u), prevSec, maxHomes, kept)
		for _, ap := range kept {
			if err := tr.AddHome(u, ap); err != nil {
				return nil, fmt.Errorf("core: augment homes: user %d: %w", u, err)
			}
		}
	}
	if err := FillHomes(n, tr, all, maxHomes); err != nil {
		return nil, err
	}
	return tr, nil
}

// KeptHomes is pass 1 for one user, reusing dst's storage: the
// primary (wlan.Unassociated for none), then each of prevSec
// (ascending) whose AP is up and in range, that is not the primary and
// fits under maxHomes. It reads nothing but u's own links.
func KeptHomes(n *wlan.Network, u, primary int, prevSec []int, maxHomes int, dst []int) []int {
	dst = dst[:0]
	if primary != wlan.Unassociated {
		dst = append(dst, primary)
	}
	for _, ap := range prevSec {
		if ap == primary || len(dst) >= maxHomes {
			continue
		}
		if _, ok := n.TxRate(ap, u); !ok {
			continue // AP down or out of range: the home is lost
		}
		dst = append(dst, ap)
	}
	return dst
}

// FillHomes is pass 2 over users (ascending, no duplicates): each
// served user below maxHomes gains the budget-admissible neighbour AP
// whose session row its join raises least (first listed on ties), in
// sweeps until one adds nothing. Feasibility and delta are both read
// count-purely from tr, and homes are only ever added, so an AP's join
// load never falls during the fill: a user whose fill failed stays
// failed until one of its neighbours loses occupancy or comes back up.
func FillHomes(n *wlan.Network, tr *wlan.Tracker, users []int, maxHomes int) error {
	for changed := true; changed; {
		changed = false
		for _, u := range users {
			if d := tr.Degree(u); d == 0 || d >= maxHomes {
				continue
			}
			best, bestDelta := wlan.Unassociated, 0.0
			for _, a := range n.NeighborAPs(u) {
				load, delta, ok := tr.LoadIfJoin(u, a)
				if !ok || !n.WithinBudget(a, load) {
					continue
				}
				if best == wlan.Unassociated || delta < bestDelta {
					best, bestDelta = a, delta
				}
			}
			if best != wlan.Unassociated {
				if err := tr.AddHome(u, best); err != nil {
					return err
				}
				changed = true
			}
		}
	}
	return nil
}
