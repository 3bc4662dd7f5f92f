package core

import (
	"math/rand"
	"testing"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// figure1 builds the paper's Figure 1 network: 2 APs, 5 users, two
// sessions with the given stream rates. Users u1,u3 request s1 and
// u2,u4,u5 request s2 (all indices zero-based here).
func figure1(t *testing.T, s1Rate, s2Rate radio.Mbps) *wlan.Network {
	t.Helper()
	rates := [][]radio.Mbps{
		{3, 6, 4, 4, 4}, // a1
		{0, 0, 5, 5, 3}, // a2
	}
	sessions := []wlan.Session{{Rate: s1Rate, Name: "s1"}, {Rate: s2Rate, Name: "s2"}}
	n, err := wlan.NewFromRates(rates, []int{0, 1, 0, 1, 1}, sessions, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// figure4 builds the paper's Figure 4 network: u1 reaches only a1
// (rate 5), u4 reaches only a2 (rate 5), u2 and u3 reach both at rate
// 4; everyone requests the same 1 Mbps session.
func figure4(t testing.TB) *wlan.Network {
	t.Helper()
	rates := [][]radio.Mbps{
		{5, 4, 4, 0}, // a1
		{0, 4, 4, 5}, // a2
	}
	n, err := wlan.NewFromRates(rates, []int{0, 0, 0, 0}, []wlan.Session{{Rate: 1}}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// figure4Start is the paper's starting association: u1,u2 on a1 and
// u3,u4 on a2.
func figure4Start() *wlan.Assoc {
	a := wlan.NewAssoc(4)
	a.Associate(0, 0)
	a.Associate(1, 0)
	a.Associate(2, 1)
	a.Associate(3, 1)
	return a
}

// randomNetwork builds a random geometric scenario for property tests.
func randomNetwork(t *testing.T, rng *rand.Rand, nAPs, nUsers, nSessions int, budget float64) *wlan.Network {
	t.Helper()
	area := geom.Square(600)
	apPos := geom.UniformPoints(rng, nAPs, area)
	userPos := geom.UniformPoints(rng, nUsers, area)
	sessions := make([]wlan.Session, nSessions)
	for s := range sessions {
		sessions[s] = wlan.Session{Rate: 1}
	}
	userSession := make([]int, nUsers)
	for u := range userSession {
		userSession[u] = rng.Intn(nSessions)
	}
	n, err := wlan.NewGeometric(area, apPos, userPos, userSession, sessions, radio.Table1(), budget)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// newTestRand returns a fixed-seed RNG for deterministic tests.
func newTestRand() *rand.Rand {
	return rand.New(rand.NewSource(2007))
}

// mustRun evaluates alg on n, failing the test on error.
func mustRun(t *testing.T, alg Algorithm, n *wlan.Network) *Result {
	t.Helper()
	res, err := Evaluate(alg, n)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res
}
