package optimal

import (
	"math"
	"math/rand"
	"testing"

	"wlanmcast/internal/core"
	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

func TestOptimalMLAFigure1(t *testing.T) {
	n := figure1(t, 1, 1)
	res := mustRun(t, &MLA{}, n)
	if math.Abs(res.TotalLoad-7.0/12.0) > 1e-9 {
		t.Errorf("optimal total load = %v, want 7/12", res.TotalLoad)
	}
	if !n.FullyAssociated(res.Assoc) {
		t.Error("optimal MLA must serve everyone")
	}
}

func TestOptimalBLAFigure1(t *testing.T) {
	// Paper §3.2: the BLA optimum is max load 1/2.
	n := figure1(t, 1, 1)
	res := mustRun(t, &BLA{}, n)
	if math.Abs(res.MaxLoad-0.5) > 1e-9 {
		t.Errorf("optimal max load = %v, want 1/2", res.MaxLoad)
	}
	if !n.FullyAssociated(res.Assoc) {
		t.Error("optimal BLA must serve everyone")
	}
}

func TestOptimalMNUFigure1(t *testing.T) {
	// Paper §3.2: at 3 Mbps sessions the optimum serves 4 of 5 users.
	n := figure1(t, 3, 3)
	res := mustRun(t, &MNU{}, n)
	if res.Satisfied != 4 {
		t.Errorf("optimal satisfied = %d, want 4", res.Satisfied)
	}
	if err := n.Validate(res.Assoc, true); err != nil {
		t.Errorf("optimal MNU violates budgets: %v", err)
	}
}

func TestOptimalRespectsBudgetsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 4; trial++ {
		n := randomNetwork(t, rng, 5, 15, 3, 0.05)
		res := mustRun(t, &MNU{}, n)
		if err := n.Validate(res.Assoc, true); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestOptimalNamesAndInterfaces(t *testing.T) {
	algs := []core.Algorithm{&MLA{}, &BLA{}, &MNU{}}
	want := []string{"MLA-optimal", "BLA-optimal", "MNU-optimal"}
	for i, a := range algs {
		if a.Name() != want[i] {
			t.Errorf("Name = %q, want %q", a.Name(), want[i])
		}
	}
}

func TestOptimalDeterministic(t *testing.T) {
	n := randomNetwork(t, rand.New(rand.NewSource(2007)), 10, 40, 3, wlan.DefaultBudget)
	for _, alg := range []core.Algorithm{&MLA{}, &BLA{}} {
		if a1, a2 := mustRun(t, alg, n), mustRun(t, alg, n); !a1.Assoc.Equal(a2.Assoc) {
			t.Errorf("%s is nondeterministic", alg.Name())
		}
	}
}

func TestOptimalOnEmptyCoverage(t *testing.T) {
	// The only user is out of range of the only AP.
	n, err := wlan.NewFromRates([][]radio.Mbps{{0}}, []int{0}, []wlan.Session{{Rate: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []core.Algorithm{&MLA{}, &BLA{}, &MNU{}} {
		if res := mustRun(t, alg, n); res.Satisfied != 0 {
			t.Errorf("%s satisfied %d users in an uncoverable network", alg.Name(), res.Satisfied)
		}
	}
}

// figure1 builds the paper's Figure 1 network: 2 APs, 5 users, two
// sessions with the given stream rates.
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

// randomNetwork places nAPs and nUsers uniformly in a 600 m square,
// each user on one of nSessions 1 Mbps sessions.
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

// mustRun evaluates alg on n, failing the test on error.
func mustRun(t *testing.T, alg core.Algorithm, n *wlan.Network) *core.Result {
	t.Helper()
	res, err := core.Evaluate(alg, n)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res
}
