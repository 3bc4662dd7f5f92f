package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// mustNet builds a one-session rate-matrix network (rates[ap][user])
// for the hand-built grandfathering cases.
func mustNet(t *testing.T, rates [][]radio.Mbps, userSession []int, sessionRate radio.Mbps, budget float64) *wlan.Network {
	t.Helper()
	n, err := wlan.NewFromRates(rates, userSession, []wlan.Session{{Rate: sessionRate}}, budget)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// multiDiffAlgorithms is the single-AP algorithm roster the degree-1
// differential suite lifts through Multi: every centralized reduction,
// SSA, and the distributed rule under each objective.
func multiDiffAlgorithms() []Algorithm {
	return []Algorithm{
		&SSA{},
		&SSA{EnforceBudget: true},
		&CentralizedMNU{},
		&CentralizedBLA{},
		&CentralizedMLA{},
		&Distributed{Objective: ObjMNU, EnforceBudget: true},
		&Distributed{Objective: ObjBLA},
		&Distributed{Objective: ObjMLA},
	}
}

// TestMultiDegree1Differential pins the core guarantee of the
// multi-homing layer: with MaxHomes=1 the lifted algorithm is
// byte-identical (marshalled form) to the single-AP algorithm it
// wraps, across 45 seeds and the full algorithm roster.
func TestMultiDegree1Differential(t *testing.T) {
	const seeds = 45
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(t, rng, 5+int(seed%4), 20+int(seed%5)*4, 1+int(seed%3), wlan.DefaultBudget)
		for _, alg := range multiDiffAlgorithms() {
			base, err := alg.Run(n)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, alg.Name(), err)
			}
			m := &Multi{Inner: alg, MaxHomes: 1}
			ma, err := m.RunMulti(n)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, m.Name(), err)
			}
			want, err := json.Marshal(wlan.FromAssoc(base))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(ma)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("seed %d %s: degree-1 multi-homing diverged from the single-AP path\n got %s\nwant %s",
					seed, alg.Name(), got, want)
			}
		}
	}
}

// TestMultiHomesProperties checks the MaxHomes=3 invariants across
// seeds: the primary assignment is preserved verbatim, the degree cap
// holds, every homed AP is reachable, no AP exceeds its budget, and
// satisfaction never drops below the single-AP baseline.
func TestMultiHomesProperties(t *testing.T) {
	algs := []Algorithm{
		&SSA{EnforceBudget: true},
		&CentralizedMNU{},
		&Distributed{Objective: ObjMNU, EnforceBudget: true},
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(t, rng, 6, 30, 2, 0.5)
		for _, alg := range algs {
			base, err := alg.Run(n)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, alg.Name(), err)
			}
			ma, err := (&Multi{Inner: alg, MaxHomes: 3}).RunMulti(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.ValidateMulti(ma, true); err != nil {
				t.Fatalf("seed %d %s: budget/reachability violated: %v", seed, alg.Name(), err)
			}
			for u := 0; u < n.NumUsers(); u++ {
				if ma.Degree(u) > 3 {
					t.Fatalf("seed %d %s: user %d degree %d > 3", seed, alg.Name(), u, ma.Degree(u))
				}
				if p := base.APOf(u); p != wlan.Unassociated && !ma.HasHome(u, p) {
					t.Fatalf("seed %d %s: user %d lost its primary AP %d", seed, alg.Name(), u, p)
				}
				if base.APOf(u) == wlan.Unassociated && ma.Degree(u) != 0 {
					t.Fatalf("seed %d %s: augmentation admitted unserved user %d", seed, alg.Name(), u)
				}
			}
			if ma.SatisfiedCount() < base.SatisfiedCount() {
				t.Fatalf("seed %d %s: multi satisfied %d < single %d",
					seed, alg.Name(), ma.SatisfiedCount(), base.SatisfiedCount())
			}
		}
	}
}

// TestAugmentHomesIdempotent: re-deriving from a derivation's own
// secondary sets is a fixed point. The engine's crash recovery
// re-derives from persisted sets and relies on this to land on the
// identical state.
func TestAugmentHomesIdempotent(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(t, rng, 6, 30, 2, 0.6)
		base, err := (&SSA{EnforceBudget: true}).Run(n)
		if err != nil {
			t.Fatal(err)
		}
		ma1, sec1, err := AugmentHomes(n, base, nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		ma2, sec2, err := AugmentHomes(n, base, sec1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !ma2.Equal(ma1) {
			t.Fatalf("seed %d: re-derivation moved the association", seed)
		}
		for u := range sec1 {
			if len(sec1[u]) != len(sec2[u]) {
				t.Fatalf("seed %d: user %d secondary sets differ: %v vs %v", seed, u, sec1[u], sec2[u])
			}
			for i := range sec1[u] {
				if sec1[u][i] != sec2[u][i] {
					t.Fatalf("seed %d: user %d secondary sets differ: %v vs %v", seed, u, sec1[u], sec2[u])
				}
			}
		}
	}
}

// TestAugmentHomesGrandfather pins the degradation semantics on a
// hand-built network: grandfathered secondaries survive without a
// budget re-check, die with their AP, and never displace the primary
// or the degree cap.
func TestAugmentHomesGrandfather(t *testing.T) {
	// rates[ap][user]: one user reaching both APs; session rate 3 at
	// tx rate 6 costs 0.5, far over the 0.1 budgets, so the fill pass
	// can never add anything — only grandfathering can.
	n := mustNet(t, [][]radio.Mbps{{6}, {6}}, []int{0}, 3, 0.1)
	primary := wlan.NewAssoc(1)
	primary.Associate(0, 0)

	// Fill alone adds nothing under the tiny budget.
	ma, sec, err := AugmentHomes(n, primary, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Degree(0) != 1 || len(sec[0]) != 0 {
		t.Fatalf("fill added a home over budget: %v", ma.Homes(0))
	}

	// A previous secondary is grandfathered with no budget re-check.
	ma, sec, err = AugmentHomes(n, primary, [][]int{{1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ma.HasHome(0, 1) || len(sec[0]) != 1 || sec[0][0] != 1 {
		t.Fatalf("grandfathered secondary dropped: homes %v sec %v", ma.Homes(0), sec[0])
	}

	// ...but not past the degree cap,
	ma, _, err = AugmentHomes(n, primary, [][]int{{1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Degree(0) != 1 || !ma.HasHome(0, 0) {
		t.Fatalf("degree cap ignored: %v", ma.Homes(0))
	}

	// ...not when it became the primary,
	ma, sec, err = AugmentHomes(n, primary, [][]int{{0}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Degree(0) != 1 || len(sec[0]) != 0 {
		t.Fatalf("primary duplicated as secondary: %v", ma.Homes(0))
	}

	// ...and not when its AP is down (the home is lost, the user
	// keeps its surviving primary).
	if err := n.DisableAP(1); err != nil {
		t.Fatal(err)
	}
	ma, sec, err = AugmentHomes(n, primary, [][]int{{1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ma.HasHome(0, 1) || len(sec[0]) != 0 {
		t.Fatalf("down AP grandfathered: %v", ma.Homes(0))
	}

	// Orphan keeping only a grandfathered secondary: primary gone
	// (AP 0 down instead), secondary 1 must keep the user served.
	if err := n.EnableAP(1); err != nil {
		t.Fatal(err)
	}
	if err := n.DisableAP(0); err != nil {
		t.Fatal(err)
	}
	orphan := wlan.NewAssoc(1) // no primary anywhere
	ma, sec, err = AugmentHomes(n, orphan, [][]int{{1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ma.HasHome(0, 1) || ma.SatisfiedCount() != 1 {
		t.Fatalf("orphan lost its surviving secondary: %v", ma.Homes(0))
	}
	if len(sec[0]) != 1 || sec[0][0] != 1 {
		t.Fatalf("secondary set wrong for orphan: %v", sec[0])
	}
}

func TestAugmentHomesErrors(t *testing.T) {
	n := mustNet(t, [][]radio.Mbps{{6}, {6}}, []int{0}, 1, 0.9)
	if _, _, err := AugmentHomes(n, wlan.NewAssoc(2), nil, 2); err == nil || !strings.Contains(err.Error(), "covers 2 users") {
		t.Fatalf("wrong-size primary accepted: %v", err)
	}
	if _, _, err := AugmentHomes(n, wlan.NewAssoc(1), [][]int{{0}, {1}}, 2); err == nil || !strings.Contains(err.Error(), "secondary sets") {
		t.Fatalf("wrong-size prev accepted: %v", err)
	}
	bad := wlan.NewAssoc(1)
	bad.Associate(0, 1)
	if err := n.DisableAP(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := AugmentHomes(n, bad, nil, 2); err == nil {
		t.Fatal("primary on a down AP accepted")
	}
	// MaxHomes < 1 clamps to 1 and Multi names itself accordingly.
	m := &Multi{Inner: &SSA{}}
	if got := m.Name(); got != "multi1-SSA" {
		t.Fatalf("Name() = %q", got)
	}
}

// Multi lifts any single-AP Algorithm (CentralizedMNU/BLA/MLA, SSA,
// or a Distributed rule with hysteresis) to a multi-homing variant:
// the inner algorithm runs verbatim to pick every user's primary AP,
// then AugmentHomes adds up to MaxHomes-1 secondary homes per user
// under the per-AP budgets. Because the primary pass is the inner
// algorithm unchanged and augmentation cannot add anything at
// MaxHomes <= 1, the degree-1 configuration is bit-identical to the
// single-AP path — the differential suite pins this. It is the
// suite's oracle: the engine derives secondary homes incrementally.
type Multi struct {
	// Inner picks the primary AP per user.
	Inner Algorithm
	// MaxHomes caps each user's AP-set size; values < 1 mean 1
	// (single-AP behavior).
	MaxHomes int
}

func (m *Multi) maxHomes() int {
	if m.MaxHomes < 1 {
		return 1
	}
	return m.MaxHomes
}

// Name names the lifted algorithm.
func (m *Multi) Name() string {
	return fmt.Sprintf("multi%d-%s", m.maxHomes(), m.Inner.Name())
}

// RunMulti runs the inner algorithm, then AugmentHomes.
func (m *Multi) RunMulti(n *wlan.Network) (*wlan.MultiAssoc, error) {
	primary, err := m.Inner.Run(n)
	if err != nil {
		return nil, err
	}
	ma, _, err := AugmentHomes(n, primary, nil, m.maxHomes())
	return ma, err
}
