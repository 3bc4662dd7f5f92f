package core

import (
	"bytes"
	"math/rand"
	"testing"

	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// roundRobin is the sequential distributed process without skipping:
// every user decides in every round, through the exported Choose and
// Tracker.Move. RunDetailed must reproduce it exactly.
func roundRobin(t *testing.T, d *Distributed, n *wlan.Network) (assoc []byte, rounds, moves int, converged bool) {
	t.Helper()
	tr, err := wlan.NewTracker(n, d.Start)
	if err != nil {
		t.Fatal(err)
	}
	order := d.Order
	if order == nil {
		for u := 0; u < n.NumUsers(); u++ {
			order = append(order, u)
		}
	}
	maxRounds := d.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	for rounds < maxRounds {
		rounds++
		changed := 0
		for _, u := range order {
			target, improves := d.Choose(n, tr, u)
			cur := tr.APOf(u)
			if target == wlan.Unassociated || target == cur || cur != wlan.Unassociated && !improves {
				continue
			}
			if err := tr.Move(u, target); err != nil {
				t.Fatal(err)
			}
			changed++
		}
		moves += changed
		if changed == 0 {
			converged = true
			break
		}
	}
	assoc, err = tr.Assoc().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return assoc, rounds, moves, converged
}

func TestDistributedSkipMatchesRoundRobin(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	skipped := false
	for trial := 0; trial < 24; trial++ {
		var n *wlan.Network
		if trial%3 == 2 {
			// Paper density: neighbourhoods are local, so a missed
			// change stamp on one AP is not masked by its neighbours.
			aps := 40 + rng.Intn(80)
			n = paperNetwork(t, int64(trial), aps, 2*aps+rng.Intn(2*aps))
		} else {
			budget := []float64{0.1, 1}[trial%3]
			n = randomNetwork(t, rng, 6+rng.Intn(25), 20+rng.Intn(110), 1+rng.Intn(3), budget)
		}
		var start *wlan.Assoc
		if trial%2 == 1 {
			// Take a few APs down first, then start from a random
			// association over the live ones.
			for k := 1 + rng.Intn(3); k > 0; k-- {
				if a := rng.Intn(len(n.APs)); !n.APDown(a) {
					if err := n.DisableAP(a); err != nil {
						t.Fatal(err)
					}
				}
			}
			start = randomStart(rng, n)
		}
		var order []int
		if trial%4 >= 2 {
			order = rng.Perm(n.NumUsers())
		}
		for _, obj := range []Objective{ObjMNU, ObjBLA, ObjMLA} {
			for _, hyst := range []float64{0, 0.02} {
				for _, enforce := range []bool{false, true} {
					for _, maxRounds := range []int{0, 2} {
						d := &Distributed{Objective: obj, EnforceBudget: enforce, Hysteresis: hyst,
							Order: order, Start: start, MaxRounds: maxRounds}
						res, err := d.RunDetailed(n)
						if err != nil {
							t.Fatal(err)
						}
						got, err := res.Assoc.MarshalJSON()
						if err != nil {
							t.Fatal(err)
						}
						want, rounds, moves, converged := roundRobin(t, d, n)
						if !bytes.Equal(got, want) || res.Rounds != rounds || res.Moves != moves || res.Converged != converged {
							t.Fatalf("trial %d %+v: skipping run (rounds %d, moves %d, converged %v) differs from round robin (%d, %d, %v)\n got  %s\n want %s",
								trial, *d, res.Rounds, res.Moves, res.Converged, rounds, moves, converged, got, want)
						}
						if res.Decisions > res.Rounds*n.NumUsers() {
							t.Fatalf("trial %d: %d decisions in %d rounds of %d users", trial, res.Decisions, res.Rounds, n.NumUsers())
						}
						skipped = skipped || res.Decisions < res.Rounds*n.NumUsers()
					}
				}
			}
		}
	}
	if !skipped {
		t.Fatal("no run skipped a decision")
	}
}

func TestDistributedDecisions(t *testing.T) {
	// The paper's own density and size (200 APs, 400 users), seed 1.
	n := paperNetwork(t, 1, 200, 400)
	res, err := (&Distributed{Objective: ObjBLA}).RunDetailed(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions >= res.Rounds*n.NumUsers() {
		t.Fatalf("%d decisions in %d rounds of %d users: nothing skipped", res.Decisions, res.Rounds, n.NumUsers())
	}
	const want = 1345
	if res.Decisions != want {
		t.Fatalf("Decisions = %d (rounds %d, moves %d), want %d", res.Decisions, res.Rounds, res.Moves, want)
	}
}

// TestChooseTieRules pins the tie order of every rule through Choose:
// among equal join deltas the stronger signal wins, whichever comes
// first in NeighborAPs, and then the lower AP id.
func TestChooseTieRules(t *testing.T) {
	cases := []struct {
		name  string
		rates []radio.Mbps // user 0's link rate to each AP
		want  int
	}{
		{"stronger signal on the higher id", []radio.Mbps{4, 6}, 1},
		{"stronger signal on the lower id", []radio.Mbps{6, 4}, 0},
		{"equal signal, lower id", []radio.Mbps{6, 6}, 0},
		{"strongest in the middle", []radio.Mbps{4, 6, 5}, 1},
		{"equal strongest, lower id", []radio.Mbps{4, 6, 6}, 1},
	}
	for _, c := range cases {
		// Every AP already carries the session at 2 Mbps for its own
		// anchor user, so user 0 joins any of them at no extra load.
		k := len(c.rates)
		rates := make([][]radio.Mbps, k)
		start := wlan.NewAssoc(1 + k)
		for a := range rates {
			rates[a] = make([]radio.Mbps, 1+k)
			rates[a][0] = c.rates[a]
			rates[a][1+a] = 2
			start.Associate(1+a, a)
		}
		n, err := wlan.NewFromRates(rates, make([]int, 1+k), []wlan.Session{{Rate: 1}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := wlan.NewTracker(n, start)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []Objective{ObjMNU, ObjBLA, ObjMLA} {
			d := &Distributed{Objective: obj, EnforceBudget: obj == ObjMNU}
			if got, improves := d.Choose(n, tr, 0); got != c.want || !improves {
				t.Errorf("%s, %v: Choose = (%d, %v), want (%d, true)", c.name, obj, got, improves, c.want)
			}
		}
	}
}
