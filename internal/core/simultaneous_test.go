package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"wlanmcast/internal/wlan"
)

// RunSimultaneous is a test oracle: the paper's Figure 4 argument that
// the distributed rules need not converge when every user decides
// from the same snapshot. Neither the engine nor the protocol
// simulation decides this way.

// SimultaneousResult describes a run where all users decide at once
// from the same snapshot — the regime in which the paper shows the
// distributed algorithms need not converge (§4.2, Figure 4).
type SimultaneousResult struct {
	// Assoc is the association after the final round.
	Assoc *wlan.Assoc
	// Rounds is the number of rounds executed.
	Rounds int
	// Converged reports that some round made no moves.
	Converged bool
	// Oscillating reports that the global state revisited an earlier
	// state without converging (a provable livelock).
	Oscillating bool
	// Period is the cycle length when Oscillating (e.g. 2 for the
	// paper's Figure 4 example).
	Period int
}

// RunSimultaneous runs the distributed rule with simultaneous
// decisions: every user picks its move against the same snapshot of
// AP loads, then all moves apply at once. maxRounds <= 0 selects
// DefaultMaxRounds. The run stops early on convergence or as soon as
// a state repeats (oscillation).
func (d *Distributed) RunSimultaneous(n *wlan.Network, start *wlan.Assoc, maxRounds int) (*SimultaneousResult, error) {
	if err := d.validate(n); err != nil {
		return nil, err
	}
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	assoc := wlan.NewAssoc(n.NumUsers())
	if start != nil {
		if start.NumUsers() != n.NumUsers() {
			return nil, fmt.Errorf("core: start association covers %d users, network has %d", start.NumUsers(), n.NumUsers())
		}
		assoc = start.Clone()
	}
	res := &SimultaneousResult{}
	seen := map[string]int{assocKey(assoc): 0}
	for res.Rounds < maxRounds {
		res.Rounds++
		snap, err := wlan.NewTracker(n, assoc)
		if err != nil {
			return nil, err
		}
		moves := 0
		next := assoc.Clone()
		for u := 0; u < n.NumUsers(); u++ {
			target, improves := d.choose(n, snap, u)
			if target == wlan.Unassociated || target == assoc.APOf(u) {
				continue
			}
			if assoc.APOf(u) != wlan.Unassociated && !improves {
				continue
			}
			next.Associate(u, target)
			moves++
		}
		assoc = next
		if moves == 0 {
			res.Converged = true
			break
		}
		key := assocKey(assoc)
		if first, ok := seen[key]; ok {
			res.Oscillating = true
			res.Period = res.Rounds - first
			break
		}
		seen[key] = res.Rounds
	}
	res.Assoc = assoc
	return res, nil
}

// assocKey serializes an association for cycle detection.
func assocKey(a *wlan.Assoc) string {
	var b strings.Builder
	for u := 0; u < a.NumUsers(); u++ {
		b.WriteString(strconv.Itoa(a.APOf(u)))
		b.WriteByte(',')
	}
	return b.String()
}

// BenchmarkOscillation exercises the Figure 4 livelock detection.
func BenchmarkOscillation(b *testing.B) {
	n := figure4(b)
	d := &Distributed{Objective: ObjMNU, EnforceBudget: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := d.RunSimultaneous(n, figure4Start(), 50)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Oscillating {
			b.Fatal("expected oscillation")
		}
	}
}
