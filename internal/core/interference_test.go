package core

import (
	"math"
	"testing"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// twoAPGeomNet builds two APs 100m apart, each with one user of its
// own 1 Mbps session at 54 Mbps.
func twoAPGeomNet(t *testing.T) (*wlan.Network, *wlan.Assoc) {
	t.Helper()
	area := geom.Square(400)
	apPos := []geom.Point{{X: 100, Y: 200}, {X: 200, Y: 200}}
	userPos := []geom.Point{{X: 100, Y: 210}, {X: 200, Y: 210}}
	n, err := wlan.NewGeometric(area, apPos, userPos, []int{0, 1},
		[]wlan.Session{{Rate: 1}, {Rate: 1}}, radio.Table1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	a := wlan.NewAssoc(2)
	a.Associate(0, 0)
	a.Associate(1, 1)
	return n, a
}

func TestEffectiveBusyTimeSameChannel(t *testing.T) {
	n, a := twoAPGeomNet(t)
	// Same channel, within range: each AP perceives both loads.
	busy, err := EffectiveBusyTime(n, a, []int{1, 1}, 150)
	if err != nil {
		t.Fatal(err)
	}
	own := 1.0 / 54
	for ap, b := range busy {
		if math.Abs(b-2*own) > 1e-12 {
			t.Errorf("AP %d busy %v, want %v", ap, b, 2*own)
		}
	}
	if math.Abs(MaxBusyTime(busy)-2*own) > 1e-12 {
		t.Errorf("MaxBusyTime = %v", MaxBusyTime(busy))
	}
}

func TestEffectiveBusyTimeSeparateChannels(t *testing.T) {
	n, a := twoAPGeomNet(t)
	busy, err := EffectiveBusyTime(n, a, []int{1, 2}, 150)
	if err != nil {
		t.Fatal(err)
	}
	own := 1.0 / 54
	for ap, b := range busy {
		if math.Abs(b-own) > 1e-12 {
			t.Errorf("AP %d busy %v, want own load only %v", ap, b, own)
		}
	}
}

func TestEffectiveBusyTimeOutOfRange(t *testing.T) {
	n, a := twoAPGeomNet(t)
	// Same channel but interference range below the 100m separation.
	busy, err := EffectiveBusyTime(n, a, []int{1, 1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	own := 1.0 / 54
	for ap, b := range busy {
		if math.Abs(b-own) > 1e-12 {
			t.Errorf("AP %d busy %v, want own load only %v", ap, b, own)
		}
	}
}

func TestEffectiveBusyTimeErrors(t *testing.T) {
	n, a := twoAPGeomNet(t)
	if _, err := EffectiveBusyTime(n, a, []int{1}, 100); err == nil {
		t.Error("short channel slice should error")
	}
	rateNet := figure1(t, 1, 1)
	if _, err := EffectiveBusyTime(rateNet, wlan.NewAssoc(5), []int{1, 1}, 100); err == nil {
		t.Error("non-geometric network should error")
	}
}

func TestImplicitInterferenceOptimizationClaim(t *testing.T) {
	// Paper footnote 7: MLA/BLA implicitly optimize interference.
	// Verify on random networks, in expectation: the BLA association
	// yields no worse max effective busy time than SSA, and MLA no
	// worse total busy time, under a 12-channel assignment.
	rng := newTestRand()
	var ssaMax, blaMax, ssaTot, mlaTot float64
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		n := randomNetwork(t, rng, 20, 80, 4, wlan.DefaultBudget)
		pts := make([]geom.Point, n.NumAPs())
		for i := range pts {
			pts[i] = n.APs[i].Pos
		}
		ca, err := radio.AssignChannels(pts, 200, 12) // the paper's 12 802.11a channels
		if err != nil {
			t.Fatal(err)
		}
		measure := func(alg Algorithm) (float64, float64) {
			res := mustRun(t, alg, n)
			busy, err := EffectiveBusyTime(n, res.Assoc, ca.Channels, 200)
			if err != nil {
				t.Fatal(err)
			}
			total := 0.0
			for _, b := range busy {
				total += b
			}
			return MaxBusyTime(busy), total
		}
		sm, st := measure(&SSA{})
		bm, _ := measure(&CentralizedBLA{})
		_, mt := measure(&CentralizedMLA{})
		ssaMax += sm
		blaMax += bm
		ssaTot += st
		mlaTot += mt
	}
	if blaMax > ssaMax+1e-9 {
		t.Errorf("BLA average max busy %v exceeds SSA %v — implicit-optimization claim violated", blaMax/trials, ssaMax/trials)
	}
	if mlaTot > ssaTot+1e-9 {
		t.Errorf("MLA average total busy %v exceeds SSA %v — implicit-optimization claim violated", mlaTot/trials, ssaTot/trials)
	}
}
