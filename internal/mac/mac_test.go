package mac

import (
	"math"
	"testing"
	"time"

	"wlanmcast/internal/core"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/wlan"
)

// singleAPNet is one AP serving nUsers users of one 1 Mbps session at
// the given link rate.
func singleAPNet(t *testing.T, rate radio.Mbps, nUsers int) (*wlan.Network, *wlan.Assoc) {
	t.Helper()
	row := make([]radio.Mbps, nUsers)
	sess := make([]int, nUsers)
	for i := range row {
		row[i] = rate
	}
	n, err := wlan.NewFromRates([][]radio.Mbps{row}, sess, []wlan.Session{{Rate: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := wlan.NewAssoc(nUsers)
	for u := 0; u < nUsers; u++ {
		a.Associate(u, 0)
	}
	return n, a
}

func TestMeasuredLoadMatchesAirtimeModel(t *testing.T) {
	// One AP streaming 1 Mbps at 54 Mbps PHY: the measured airtime
	// fraction must sit within a few percent of the analytic
	// AirtimeLoad (same frame timing, expected backoff).
	n, a := singleAPNet(t, 54, 3)
	res, err := Run(Config{Network: n, Assoc: a, Duration: 30 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := wlan.AirtimeLoad{Model: radio.Default80211a(), PayloadBytes: 1472}.SessionLoad(1, 54)
	got := res.MeasuredLoad(0)
	if math.Abs(got-want) > 0.1*want {
		t.Errorf("measured load %v, analytic airtime load %v (>10%% apart)", got, want)
	}
	// And strictly above the paper's pure ratio model (overhead).
	if ratio := (wlan.RatioLoad{}).SessionLoad(1, 54); got <= ratio {
		t.Errorf("measured load %v not above ratio model %v", got, ratio)
	}
}

func TestMeasuredLoadTracksPHYRate(t *testing.T) {
	// Slower PHY rate → proportionally more airtime.
	loads := make(map[radio.Mbps]float64)
	for _, rate := range []radio.Mbps{6, 24, 54} {
		n, a := singleAPNet(t, rate, 2)
		res, err := Run(Config{Network: n, Assoc: a, Duration: 20 * time.Second, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		loads[rate] = res.MeasuredLoad(0)
	}
	if !(loads[6] > loads[24] && loads[24] > loads[54]) {
		t.Errorf("loads not decreasing with rate: %v", loads)
	}
	// At 6 Mbps the payload time dominates: ratio ≈ 1/6; measured
	// should be within 25% of it.
	if math.Abs(loads[6]-1.0/6.0) > 0.25/6 {
		t.Errorf("load at 6 Mbps = %v, want ≈ 1/6", loads[6])
	}
}

func TestIsolatedAPsNeverCollide(t *testing.T) {
	n, a := singleAPNet(t, 24, 4)
	res, err := Run(Config{Network: n, Assoc: a, Duration: 10 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerAP[0].MulticastCollided != 0 {
		t.Errorf("%d collisions with a single station", res.PerAP[0].MulticastCollided)
	}
	for u := 0; u < n.NumUsers(); u++ {
		if res.DeliveredToUser[u] != res.FramesToUser[u] {
			t.Errorf("user %d got %d of %d frames, want all", u, res.DeliveredToUser[u], res.FramesToUser[u])
		}
		if res.FramesToUser[u] == 0 {
			t.Errorf("user %d received no frames at all", u)
		}
	}
}

func TestSharedDomainCollides(t *testing.T) {
	// Two APs, each streaming its own session to its own user, forced
	// into one contention domain with a tiny CW: collisions must
	// appear and delivery must drop below 1.
	rates := [][]radio.Mbps{
		{54, 0},
		{0, 54},
	}
	// 26 Mbps each oversubscribes the channel so both queues stay
	// backlogged and the stations contend every round.
	n, err := wlan.NewFromRates(rates, []int{0, 1}, []wlan.Session{{Rate: 26}, {Rate: 26}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := wlan.NewAssoc(2)
	a.Associate(0, 0)
	a.Associate(1, 1)
	res, err := Run(Config{
		Network:  n,
		Assoc:    a,
		Duration: 20 * time.Second,
		Domains:  [][]int{{0, 1}},
		CWSlots:  4,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	totalCollided := res.PerAP[0].MulticastCollided + res.PerAP[1].MulticastCollided
	if totalCollided == 0 {
		t.Fatal("no collisions in a shared domain with CW=4")
	}
	if res.DeliveredToUser[0] == res.FramesToUser[0] && res.DeliveredToUser[1] == res.FramesToUser[1] {
		t.Error("collisions did not lower any delivery ratio")
	}
	// But the medium never transmits two frames back to back in
	// overlapping time: per-AP airtime sums can exceed wall clock
	// only through collisions.
	if res.MeasuredLoad(0)+res.MeasuredLoad(1) > 2 {
		t.Error("airtime accounting out of range")
	}
}

func TestCBRFrameRate(t *testing.T) {
	// 1 Mbps stream, 1472-byte frames → 1e6/(1472*8) ≈ 84.9 frames/s.
	n, a := singleAPNet(t, 54, 1)
	res, err := Run(Config{Network: n, Assoc: a, Duration: 10 * time.Second, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * 1e6 / (1472 * 8)
	got := float64(res.PerAP[0].MulticastSent)
	if math.Abs(got-want) > 3 {
		t.Errorf("sent %v frames, want ≈ %.1f", got, want)
	}
}

func TestUnicastCoexistenceFavorsMLA(t *testing.T) {
	// The paper's motivation, measured at packet level: the MLA
	// association leaves more unicast goodput than SSA on the same
	// network under saturated unicast.
	p := scenario.PaperDefaults()
	p.NumAPs = 20
	p.NumUsers = 60
	p.NumSessions = 3
	p.Seed = 6
	n, err := scenario.GenerateNetwork(p)
	if err != nil {
		t.Fatal(err)
	}
	goodput := make(map[string]float64)
	for _, alg := range []core.Algorithm{&core.SSA{}, &core.CentralizedMLA{}} {
		assoc, err := alg.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Network:          n,
			Assoc:            assoc,
			Duration:         5 * time.Second,
			UnicastSaturated: true,
			Seed:             7,
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for ap := 0; ap < n.NumAPs(); ap++ {
			total += res.UnicastGoodput(ap, 1472)
		}
		goodput[alg.Name()] = total
	}
	if goodput["MLA-centralized"] <= goodput["SSA"] {
		t.Errorf("MLA goodput %v not above SSA %v", goodput["MLA-centralized"], goodput["SSA"])
	}
}

func TestUnicastSaturationFillsChannel(t *testing.T) {
	n, a := singleAPNet(t, 54, 1)
	res, err := Run(Config{
		Network:          n,
		Assoc:            a,
		Duration:         5 * time.Second,
		UnicastSaturated: true,
		Seed:             8,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.PerAP[0]
	busy := (st.MulticastAirtime + st.UnicastAirtime).Seconds() / res.Duration.Seconds()
	if busy < 0.95 {
		t.Errorf("saturated channel only %v busy", busy)
	}
	if st.UnicastSent == 0 {
		t.Error("no unicast frames under saturation")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil network should error")
	}
	n, _ := singleAPNet(t, 54, 1)
	if _, err := Run(Config{Network: n, Assoc: wlan.NewAssoc(5)}); err == nil {
		t.Error("mismatched association should error")
	}
}

func TestEmptyAssociationIdleChannel(t *testing.T) {
	n, _ := singleAPNet(t, 54, 2)
	res, err := Run(Config{Network: n, Assoc: wlan.NewAssoc(2), Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMeasuredLoad() != 0 {
		t.Errorf("idle network measured load %v", res.TotalMeasuredLoad())
	}
	if res.FramesToUser[0] != 0 || res.DeliveredToUser[0] != 0 {
		t.Errorf("idle network sent %d frames, delivered %d", res.FramesToUser[0], res.DeliveredToUser[0])
	}
}
