package core

import (
	"fmt"

	"wlanmcast/internal/wlan"
)

// Explicit interference modeling is the paper's third future-work
// item (§8); footnote 7 claims the MLA and BLA solutions "implicitly
// optimize interference". EffectiveBusyTime makes that measurable: an
// AP's channel is busy not only during its own multicast
// transmissions but also while any same-channel AP within
// interference range transmits, so the perceived busy fraction is the
// AP's own load plus its co-channel neighbors' loads. The
// ext-interference experiment compares the metric across association
// policies and channel budgets.

// EffectiveBusyTime returns, per AP, the fraction of time its channel
// is occupied by multicast: its own load plus the loads of
// same-channel APs within interferenceRange meters. channels[i] is AP
// i's channel (e.g. from radio.AssignChannels); the network must be
// geometric. Values may exceed 1 when co-channel neighbors are
// oversubscribed — exactly the overload the metric exists to expose.
func EffectiveBusyTime(n *wlan.Network, assoc *wlan.Assoc, channels []int, interferenceRange float64) ([]float64, error) {
	if !n.Geometric() {
		return nil, fmt.Errorf("core: interference model needs a geometric network")
	}
	if len(channels) != n.NumAPs() {
		return nil, fmt.Errorf("core: %d channels for %d APs", len(channels), n.NumAPs())
	}
	if err := n.Validate(assoc, false); err != nil {
		return nil, err
	}
	loads := make([]float64, n.NumAPs())
	for ap := range loads {
		loads[ap] = n.APLoad(assoc, ap)
	}
	busy := make([]float64, n.NumAPs())
	rr := interferenceRange * interferenceRange
	for a := 0; a < n.NumAPs(); a++ {
		busy[a] = loads[a]
		for b := 0; b < n.NumAPs(); b++ {
			if a == b || channels[a] != channels[b] {
				continue
			}
			if n.APs[a].Pos.DistSq(n.APs[b].Pos) <= rr {
				busy[a] += loads[b]
			}
		}
	}
	return busy, nil
}

// MaxBusyTime returns the maximum effective busy fraction — the
// interference analogue of the BLA objective.
func MaxBusyTime(busy []float64) float64 {
	m := 0.0
	for _, b := range busy {
		if b > m {
			m = b
		}
	}
	return m
}
