package core_test

import (
	"math"
	"math/rand"
	"testing"

	"wlanmcast/internal/core"
	"wlanmcast/internal/geom"
	"wlanmcast/internal/optimal"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// Approximation-factor regression suite: on small seeded instances
// where the branch-and-bound ILP solvers reach the true optimum, the
// greedy algorithms must stay within the paper's proven bounds —
// MNU >= OPT/8 (Theorem: greedy MCG is an 8-approximation, §4) and
// MLA <= (ln n + 1)·OPT (greedy weighted set cover, §6). The bounds
// are loose in practice, so a failure here means a genuine regression
// in the greedy reductions, not noise. The solvers live in
// internal/optimal, which imports core, so this is an external test
// package.

// approxEps absorbs float accumulation when comparing load sums.
const approxEps = 1e-9

func TestMNUApproximationBound(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Tight budgets make MNU leave users unserved, which is the
		// regime where the 8-approximation bound has teeth.
		budget := 0.05 + 0.1*rng.Float64()
		n := randomNetwork(t, rng, 4+int(seed%3), 10+int(seed%4)*2, 1+int(seed%2), budget)
		greedy := mustRun(t, &core.CentralizedMNU{}, n)
		opt := mustRun(t, &optimal.MNU{}, n)
		if err := n.Validate(opt.Assoc, true); err != nil {
			t.Fatalf("seed %d: optimal MNU violates budgets: %v", seed, err)
		}
		if opt.Satisfied < greedy.Satisfied {
			t.Fatalf("seed %d: \"optimal\" MNU serves %d users, greedy serves %d",
				seed, opt.Satisfied, greedy.Satisfied)
		}
		if 8*greedy.Satisfied < opt.Satisfied {
			t.Fatalf("seed %d: MNU bound regressed: greedy %d < OPT/8 (OPT = %d)",
				seed, greedy.Satisfied, opt.Satisfied)
		}
	}
}

func TestMLAApproximationBound(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(t, rng, 4+int(seed%3), 10+int(seed%4)*2, 1+int(seed%2), wlan.DefaultBudget)
		greedy := mustRun(t, &core.CentralizedMLA{}, n)
		opt := mustRun(t, &optimal.MLA{}, n)
		if opt.Satisfied < greedy.Satisfied {
			t.Fatalf("seed %d: optimal MLA covers %d users, greedy covers %d",
				seed, opt.Satisfied, greedy.Satisfied)
		}
		if opt.TotalLoad > greedy.TotalLoad+approxEps {
			t.Fatalf("seed %d: \"optimal\" MLA load %v exceeds greedy %v",
				seed, opt.TotalLoad, greedy.TotalLoad)
		}
		// ln n + 1 with n = covered users (the set-cover universe).
		covered := 0
		for u := 0; u < n.NumUsers(); u++ {
			if n.Coverable(u) {
				covered++
			}
		}
		if covered == 0 {
			if greedy.TotalLoad != 0 {
				t.Fatalf("seed %d: load %v with no coverable users", seed, greedy.TotalLoad)
			}
			continue
		}
		bound := (math.Log(float64(covered)) + 1) * opt.TotalLoad
		if greedy.TotalLoad > bound+approxEps {
			t.Fatalf("seed %d: MLA bound regressed: greedy %v > (ln %d + 1)*OPT = %v",
				seed, greedy.TotalLoad, covered, bound)
		}
	}
}

// TestBLAApproximationBound rides along: §5's iterated-MCG analysis
// gives BLA a (log_{8/7} n + 1) factor on the max load.
func TestBLAApproximationBound(t *testing.T) {
	for seed := int64(200); seed < 208; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(t, rng, 4+int(seed%3), 10+int(seed%3)*3, 1+int(seed%2), wlan.DefaultBudget)
		greedy := mustRun(t, &core.CentralizedBLA{}, n)
		opt := mustRun(t, &optimal.BLA{}, n)
		if opt.MaxLoad > greedy.MaxLoad+approxEps {
			t.Fatalf("seed %d: \"optimal\" BLA max load %v exceeds greedy %v",
				seed, opt.MaxLoad, greedy.MaxLoad)
		}
		covered := 0
		for u := 0; u < n.NumUsers(); u++ {
			if n.Coverable(u) {
				covered++
			}
		}
		if covered == 0 {
			continue
		}
		bound := (math.Log(float64(covered))/math.Log(8.0/7.0) + 1) * opt.MaxLoad
		if greedy.MaxLoad > bound+approxEps {
			t.Fatalf("seed %d: BLA bound regressed: greedy %v > (log_{8/7} %d + 1)*OPT = %v",
				seed, greedy.MaxLoad, covered, bound)
		}
	}
}

func TestApproximationGuaranteesRandom(t *testing.T) {
	// Property: on random networks the approximation algorithms stay
	// within their proven factors of the exact optima, and the optima
	// are never beaten.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 6; trial++ {
		n := randomNetwork(t, rng, 6, 18, 3, 0.08)

		optMLA := mustRun(t, &optimal.MLA{}, n)
		apxMLA := mustRun(t, &core.CentralizedMLA{}, n)
		if apxMLA.TotalLoad < optMLA.TotalLoad-1e-9 {
			t.Fatalf("trial %d: greedy MLA %v beat 'optimal' %v", trial, apxMLA.TotalLoad, optMLA.TotalLoad)
		}
		bound := (math.Log(float64(n.NumUsers())) + 1) * optMLA.TotalLoad
		if apxMLA.TotalLoad > bound+1e-9 {
			t.Fatalf("trial %d: greedy MLA %v exceeds (ln n+1)*OPT %v", trial, apxMLA.TotalLoad, bound)
		}

		optBLA := mustRun(t, &optimal.BLA{}, n)
		apxBLA := mustRun(t, &core.CentralizedBLA{}, n)
		if apxBLA.MaxLoad < optBLA.MaxLoad-1e-9 {
			t.Fatalf("trial %d: greedy BLA %v beat 'optimal' %v", trial, apxBLA.MaxLoad, optBLA.MaxLoad)
		}

		optMNU := mustRun(t, &optimal.MNU{}, n)
		apxMNU := mustRun(t, &core.CentralizedMNU{}, n)
		if apxMNU.Satisfied > optMNU.Satisfied {
			t.Fatalf("trial %d: greedy MNU %d beat 'optimal' %d", trial, apxMNU.Satisfied, optMNU.Satisfied)
		}
		if float64(apxMNU.Satisfied) < float64(optMNU.Satisfied)/8-1e-9 {
			t.Fatalf("trial %d: greedy MNU %d below OPT/8 (OPT=%d)", trial, apxMNU.Satisfied, optMNU.Satisfied)
		}
	}
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
