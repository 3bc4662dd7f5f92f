package core

import (
	"fmt"
	"math"

	"wlanmcast/internal/obs"
	"wlanmcast/internal/setcover"
	"wlanmcast/internal/wlan"
)

// CentralizedMLA is the paper's §6 algorithm: reduce to weighted set
// cover (Theorem 5) and run the greedy CostSC (Fig 8), an (ln n + 1)-
// approximation of the minimum total multicast load.
type CentralizedMLA struct {
	// Obs, when set, receives algo_runs_total / algo_iterations_total.
	Obs *obs.Registry
	// Trace, when active, receives one EvAlgoRun event per run
	// (N = picked sets, Value = total cost).
	Trace obs.Recorder
}

var _ Algorithm = (*CentralizedMLA)(nil)

// Name implements Algorithm.
func (*CentralizedMLA) Name() string { return "MLA-centralized" }

// Run implements Algorithm.
func (c *CentralizedMLA) Run(n *wlan.Network) (*wlan.Assoc, error) {
	in, infos := BuildInstance(n, false)
	res, err := setcover.GreedyCover(in)
	if err != nil {
		return nil, err
	}
	recordAlgoRun(c.Obs, c.Trace, c.Name(), len(res.Picked), res.TotalCost)
	return ApplyPicks(n, in, infos, res.Picked), nil
}

// CentralizedMNU is the paper's §4.1 algorithm: reduce to Maximum
// Coverage with Group Budgets (Theorem 1), run the greedy of Fig 3,
// and repair with the H1/H2 split — an 8-approximation of the maximum
// number of servable users (Theorem 2). Per-AP budgets come from the
// network's AP Budget fields.
type CentralizedMNU struct {
	// Obs, when set, receives algo_runs_total / algo_iterations_total.
	Obs *obs.Registry
	// Trace, when active, receives one EvAlgoRun event per run
	// (N = picked sets, Value = users served after the fill pass).
	Trace obs.Recorder
}

var _ Algorithm = (*CentralizedMNU)(nil)

// Name implements Algorithm.
func (*CentralizedMNU) Name() string { return "MNU-centralized" }

// Run implements Algorithm.
func (c *CentralizedMNU) Run(n *wlan.Network) (*wlan.Assoc, error) {
	in, infos := BuildInstance(n, true)
	res, err := setcover.GreedyMCG(in)
	if err != nil {
		return nil, err
	}
	assoc := ApplyPicks(n, in, infos, res.Picked)
	if err := fillUnderBudgets(n, assoc); err != nil {
		return nil, err
	}
	recordAlgoRun(c.Obs, c.Trace, c.Name(), len(res.Picked), float64(assoc.SatisfiedCount()))
	return assoc, nil
}

// fillUnderBudgets adds every still-unassociated user that fits under
// some AP's residual budget, cheapest load increase first. The H1/H2
// repair of the MCG greedy discards up to half the raw selection;
// this pass wins much of it back while never violating a budget, so
// Theorem 2's factor is preserved (the result only grows).
func fillUnderBudgets(n *wlan.Network, assoc *wlan.Assoc) error {
	tr, err := wlan.NewTracker(n, assoc)
	if err != nil {
		return err
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < n.NumUsers(); u++ {
			if tr.APOf(u) != wlan.Unassociated {
				continue
			}
			best, bestDelta := wlan.Unassociated, 0.0
			for _, a := range n.NeighborAPs(u) {
				load, ok := tr.LoadIfJoin(u, a)
				if !ok || load > n.APs[a].Budget+loadEps {
					continue
				}
				delta := load - tr.APLoad(a)
				if best == wlan.Unassociated || delta < bestDelta {
					best, bestDelta = a, delta
				}
			}
			if best != wlan.Unassociated {
				if err := tr.Associate(u, best); err != nil {
					return err
				}
				changed = true
			}
		}
	}
	for u := 0; u < n.NumUsers(); u++ {
		assoc.Associate(u, tr.APOf(u))
	}
	return nil
}

// CentralizedBLA is the paper's §5.1 algorithm (Fig 6): guess the
// optimal max load B*, give every AP that budget, and iterate the MNU
// greedy log_{8/7}(n)+1 times until everyone is covered — a
// (log_{8/7} n + 1)-approximation of the minimum maximum AP load
// (Theorem 4). Following the paper, a constant number of B* guesses
// between the largest single-set cost and 1 are tried and the best
// complete cover wins.
type CentralizedBLA struct {
	// Guesses is the number of B* values tried (0 = DefaultBLAGuesses).
	Guesses int
	// NoPolish disables the local-search polish pass (sequential
	// rounds of the distributed BLA rule on the SCG cover). The
	// polish only ever lowers the sorted load vector; disabling it
	// reproduces the bare Fig 6 algorithm.
	NoPolish bool
	// Obs, when set, receives algo_runs_total / algo_iterations_total
	// and algo_bla_guesses_total.
	Obs *obs.Registry
	// Trace, when active, receives one EvGuess event per B* guess and
	// one EvAlgoRun per run (N = SCG passes of the winning guess,
	// Value = its max group cost).
	Trace obs.Recorder
}

var _ Algorithm = (*CentralizedBLA)(nil)

// DefaultBLAGuesses is the number of B* guesses when unset.
const DefaultBLAGuesses = 12

// Name implements Algorithm.
func (*CentralizedBLA) Name() string { return "BLA-centralized" }

// Run implements Algorithm.
func (b *CentralizedBLA) Run(n *wlan.Network) (*wlan.Assoc, error) {
	in, infos := BuildInstance(n, true)
	if len(in.Sets) == 0 {
		return wlan.NewAssoc(n.NumUsers()), nil
	}
	guesses := b.Guesses
	if guesses <= 0 {
		guesses = DefaultBLAGuesses
	}
	// The paper tries B* values "between c_max and 1". Guessing below
	// c_max is also sound — sets costlier than B* just become
	// unusable and the incomplete covers are skipped — and it is what
	// lets the algorithm find covers far more balanced than the most
	// expensive single set, so the grid spans [c_min, max(1, c_max)].
	cMin, cMax := math.Inf(1), 0.0
	for _, s := range in.Sets {
		if s.Cost < cMin {
			cMin = s.Cost
		}
		if s.Cost > cMax {
			cMax = s.Cost
		}
	}
	lo := math.Max(cMin, 1e-6)
	hi := math.Max(1, cMax)

	// One solver serves every guess: the coverage index is built once
	// and each SCG call rewinds it.
	solver, err := setcover.NewSolver(in)
	if err != nil {
		return nil, err
	}
	var (
		best *setcover.SCGResult
		// bracket for the bisection refinement: the largest failing
		// and smallest succeeding B* seen so far.
		failBelow = 0.0
		okAbove   = math.Inf(1)
	)
	try := func(bStar float64) error {
		res, err := solver.SCG(bStar, 0)
		if err != nil {
			return err
		}
		recordGuess(b.Obs, b.Trace, b.Name(), bStar, res.Complete)
		if !res.Complete {
			if bStar > failBelow {
				failBelow = bStar
			}
			return nil
		}
		if bStar < okAbove {
			okAbove = bStar
		}
		if best == nil || res.MaxGroupCost < best.MaxGroupCost {
			best = res
		}
		return nil
	}
	for i := 0; i < guesses; i++ {
		// Geometric spacing concentrates guesses near the small end,
		// where the achievable optima live.
		frac := float64(i) / float64(maxInt(guesses-1, 1))
		if err := try(lo * math.Pow(hi/lo, frac)); err != nil {
			return nil, err
		}
	}
	// Bisect toward the smallest complete B*: completeness is (near-)
	// monotone in B*, and smaller budgets force more balanced covers.
	// (No bracket exists when every grid guess succeeded — the grid
	// already reached down to the cheapest set — or none did.)
	for i := 0; i < guesses/2 && failBelow > 0 && okAbove > failBelow*1.02; i++ {
		mid := math.Sqrt(failBelow * okAbove)
		if err := try(mid); err != nil {
			return nil, err
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: BLA found no complete cover in %d guesses over [%v, %v]", guesses, lo, hi)
	}
	recordAlgoRun(b.Obs, b.Trace, b.Name(), best.Iterations, best.MaxGroupCost)
	assoc := ApplyPicks(n, in, infos, best.Picked)
	if !b.NoPolish {
		// Local-search polish: sequential rounds of the paper's own
		// distributed BLA rule, seeded with the SCG cover. Each move
		// strictly reduces the global sorted load vector (Lemma 2),
		// so the Theorem 4 guarantee is preserved and the result can
		// only improve.
		polish := &Distributed{Objective: ObjBLA, Start: assoc, Obs: b.Obs, Trace: b.Trace}
		polished, err := polish.RunDetailed(n)
		if err != nil {
			return nil, err
		}
		assoc = polished.Assoc
	}
	return assoc, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
