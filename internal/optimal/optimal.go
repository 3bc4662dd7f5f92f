// Package optimal holds the exact solvers of the paper's Figure 12,
// which compares the approximation and distributed algorithms against
// optimal solutions computed "based on the ILP of set cover problem".
// The three solvers are those ILPs, built from the same reduction as
// the approximation algorithms (core.BuildInstance) and solved by
// internal/ilp's branch and bound. They are exponential-time in the
// worst case and meant for the paper's small-network regime. Each is
// a core.Algorithm; the daemon and loadgen never link this package.
package optimal

import (
	"fmt"

	"wlanmcast/internal/core"
	"wlanmcast/internal/ilp"
	"wlanmcast/internal/lp"
	"wlanmcast/internal/setcover"
	"wlanmcast/internal/wlan"
)

// MLA computes the minimum-total-load association exactly:
//
//	min  Σ_S cost(S) x_S
//	s.t. Σ_{S ∋ u} x_S >= 1   for every coverable user u
//	     x_S ∈ {0,1}
type MLA struct {
	// MaxNodes caps the branch-and-bound (0 = solver default).
	MaxNodes int
}

var _ core.Algorithm = (*MLA)(nil)

// Name implements core.Algorithm.
func (*MLA) Name() string { return "MLA-optimal" }

// Run implements core.Algorithm.
func (o *MLA) Run(n *wlan.Network) (*wlan.Assoc, error) {
	in, infos := core.BuildInstance(n, false)
	if len(in.Sets) == 0 {
		return wlan.NewAssoc(n.NumUsers()), nil
	}
	p := &lp.Problem{NumVars: len(in.Sets), Objective: setCosts(in)}
	addCoverage(p, in)
	// Warm start with the greedy cover.
	greedy, err := setcover.GreedyCover(in)
	if err != nil {
		return nil, err
	}
	sol, err := ilp.Solve(p, ilp.Options{
		MaxNodes:   o.MaxNodes,
		Incumbent:  picksVector(len(in.Sets), greedy.Picked),
		RelaxBoxes: true,
	})
	if err != nil {
		return nil, err
	}
	if !sol.Feasible {
		return nil, fmt.Errorf("optimal: MLA: ILP infeasible")
	}
	return core.ApplyPicks(n, in, infos, chosen(sol.X, len(in.Sets))), nil
}

// BLA computes the minimum-max-load association exactly as a
// mixed-integer program with a continuous max-load variable L:
//
//	min  L
//	s.t. Σ_{S ∋ u} x_S >= 1                 for every coverable user u
//	     Σ_{S ∈ AP a} cost(S) x_S - L <= 0  for every AP a
//	     x_S ∈ {0,1}, 0 <= L <= Σ cost(S)
type BLA struct {
	// MaxNodes caps the branch-and-bound (0 = solver default).
	MaxNodes int
}

var _ core.Algorithm = (*BLA)(nil)

// Name implements core.Algorithm.
func (*BLA) Name() string { return "BLA-optimal" }

// Run implements core.Algorithm.
func (o *BLA) Run(n *wlan.Network) (*wlan.Assoc, error) {
	in, infos := core.BuildInstance(n, true)
	if len(in.Sets) == 0 {
		return wlan.NewAssoc(n.NumUsers()), nil
	}
	m := len(in.Sets)
	lVar := m // index of the continuous L variable
	p := &lp.Problem{NumVars: m + 1, Objective: make([]float64, m+1)}
	p.Objective[lVar] = 1
	addCoverage(p, in)
	totalCost := 0.0
	for g := 0; g < in.NumGroups; g++ {
		row := make([]float64, m+1)
		any := false
		for j, s := range in.Sets {
			if s.Group == g {
				row[j] = s.Cost
				any = true
			}
		}
		if !any {
			continue
		}
		row[lVar] = -1
		p.Cons = append(p.Cons, lp.Constraint{Coeffs: row, Rel: lp.LE, RHS: 0})
	}
	for _, s := range in.Sets {
		totalCost += s.Cost
	}
	integer := make([]bool, m+1)
	upper := make([]float64, m+1)
	for j := 0; j < m; j++ {
		integer[j] = true
	}
	upper[lVar] = totalCost + 1

	// Warm start with the centralized approximation.
	var incumbent []float64
	if approx, err := (&core.CentralizedBLA{}).Run(n); err == nil {
		incumbent = assocIncumbentBLA(n, in, infos, approx, lVar)
	}
	sol, err := ilp.Solve(p, ilp.Options{
		MaxNodes:   o.MaxNodes,
		Integer:    integer,
		Upper:      upper,
		Incumbent:  incumbent,
		RelaxBoxes: true,
	})
	if err != nil {
		return nil, err
	}
	if !sol.Feasible {
		return nil, fmt.Errorf("optimal: BLA: ILP infeasible")
	}
	return core.ApplyPicks(n, in, infos, chosen(sol.X, m)), nil
}

// MNU computes the maximum satisfiable user count exactly:
//
//	max  Σ_u z_u
//	s.t. z_u - Σ_{S ∋ u} x_S <= 0        for every user u
//	     Σ_{S ∈ AP a} cost(S) x_S <= B_a for every AP a
//	     x_S ∈ {0,1}, 0 <= z_u <= 1
//
// (z integrality is implied: with binary x the optimum pushes each
// z_u to min(1, Σ x), which is integral.)
type MNU struct {
	// MaxNodes caps the branch-and-bound (0 = solver default).
	MaxNodes int
}

var _ core.Algorithm = (*MNU)(nil)

// Name implements core.Algorithm.
func (*MNU) Name() string { return "MNU-optimal" }

// Run implements core.Algorithm.
func (o *MNU) Run(n *wlan.Network) (*wlan.Assoc, error) {
	in, infos := core.BuildInstance(n, true)
	in, infos = dropOverBudgetSets(in, infos)
	m := len(in.Sets)
	if m == 0 {
		return wlan.NewAssoc(n.NumUsers()), nil
	}
	nu := n.NumUsers()
	p := &lp.Problem{NumVars: m + nu, Maximize: true, Objective: make([]float64, m+nu)}
	for u := 0; u < nu; u++ {
		p.Objective[m+u] = 1
	}
	// z_u <= Σ_{S ∋ u} x_S
	coverRows := coverageRows(in)
	for u := 0; u < nu; u++ {
		row := make([]float64, m+nu)
		for _, j := range coverRows[u] {
			row[j] = -1
		}
		row[m+u] = 1
		p.Cons = append(p.Cons, lp.Constraint{Coeffs: row, Rel: lp.LE, RHS: 0})
	}
	// Per-AP budgets.
	for g := 0; g < in.NumGroups; g++ {
		row := make([]float64, m)
		any := false
		for j, s := range in.Sets {
			if s.Group == g {
				row[j] = s.Cost
				any = true
			}
		}
		if any {
			p.Cons = append(p.Cons, lp.Constraint{Coeffs: row, Rel: lp.LE, RHS: in.Budgets[g]})
		}
	}
	integer := make([]bool, m+nu)
	for j := 0; j < m; j++ {
		integer[j] = true
	}
	// Warm start with the repaired centralized approximation: its
	// association maps to a feasible (x, z) point via the realized
	// per-(AP, session) transmission rates.
	var incumbent []float64
	if approx, err := (&core.CentralizedMNU{}).Run(n); err == nil {
		incumbent = assocIncumbentMNU(n, infos, approx, m, nu)
	}
	sol, err := ilp.Solve(p, ilp.Options{
		MaxNodes:   o.MaxNodes,
		Integer:    integer,
		Incumbent:  incumbent,
		RelaxBoxes: true,
	})
	if err != nil {
		return nil, err
	}
	if !sol.Feasible {
		return nil, fmt.Errorf("optimal: MNU: ILP infeasible")
	}
	return core.ApplyPicks(n, in, infos, chosen(sol.X, m)), nil
}

// --- shared helpers ---

// dropOverBudgetSets removes sets whose own cost exceeds their group's
// budget. Integrally they can never be selected, but the LP relaxation
// happily uses them fractionally, so pruning them both shrinks the
// MNU ILP and tightens its bound without changing the optimum.
func dropOverBudgetSets(in *setcover.Instance, infos []core.SetInfo) (*setcover.Instance, []core.SetInfo) {
	out := &setcover.Instance{
		NumElements: in.NumElements,
		NumGroups:   in.NumGroups,
		Budgets:     in.Budgets,
	}
	var keptInfos []core.SetInfo
	for j, s := range in.Sets {
		if s.Cost > in.Budgets[s.Group]+1e-9 {
			continue
		}
		out.Sets = append(out.Sets, s)
		keptInfos = append(keptInfos, infos[j])
	}
	return out, keptInfos
}

func setCosts(in *setcover.Instance) []float64 {
	c := make([]float64, len(in.Sets))
	for j, s := range in.Sets {
		c[j] = s.Cost
	}
	return c
}

// coverageRows returns, per element, the indices of sets covering it.
func coverageRows(in *setcover.Instance) [][]int {
	rows := make([][]int, in.NumElements)
	for j, s := range in.Sets {
		for _, e := range s.Elems {
			rows[e] = append(rows[e], j)
		}
	}
	return rows
}

// addCoverage appends "every coverable element covered" constraints.
// Coefficient rows span p.NumVars so auxiliary variables stay zero.
func addCoverage(p *lp.Problem, in *setcover.Instance) {
	for _, js := range coverageRows(in) {
		if len(js) == 0 {
			continue // uncoverable user: no constraint
		}
		row := make([]float64, p.NumVars)
		for _, j := range js {
			row[j] = 1
		}
		p.Cons = append(p.Cons, lp.Constraint{Coeffs: row, Rel: lp.GE, RHS: 1})
	}
}

// picksVector converts a pick list to a 0/1 vector of length m.
func picksVector(m int, picked []int) []float64 {
	v := make([]float64, m)
	for _, j := range picked {
		v[j] = 1
	}
	return v
}

// chosen converts an ILP solution vector back to a pick list over the
// first m (set) variables.
func chosen(x []float64, m int) []int {
	var picked []int
	for j := 0; j < m; j++ {
		if x[j] > 0.5 {
			picked = append(picked, j)
		}
	}
	return picked
}

// assocIncumbentMNU converts an association into a feasible warm-start
// vector for the MNU MIP: per (AP, session), select the set matching
// the realized (minimum) transmission rate, and set z_u = 1 for every
// associated user. Realized loads equal the selected sets' costs, so
// the point honors every budget the association honored.
func assocIncumbentMNU(n *wlan.Network, infos []core.SetInfo, assoc *wlan.Assoc, m, nu int) []float64 {
	x := make([]float64, m+nu)
	type key struct{ ap, session int }
	minRate := make(map[key]float64)
	for u := 0; u < nu; u++ {
		ap := assoc.APOf(u)
		if ap == wlan.Unassociated {
			continue
		}
		r, _ := n.TxRate(ap, u)
		k := key{ap, n.UserSession(u)}
		if cur, ok := minRate[k]; !ok || float64(r) < cur {
			minRate[k] = float64(r)
		}
		x[m+u] = 1
	}
	for j, info := range infos {
		if r, ok := minRate[key{info.AP, info.Session}]; ok && float64(info.Rate) == r {
			x[j] = 1
		}
	}
	return x
}

// assocIncumbentBLA converts an association into a feasible warm-start
// vector for the BLA MIP: select, per (AP, session), the set matching
// the realized transmission rate, and set L to the realized max load.
func assocIncumbentBLA(n *wlan.Network, in *setcover.Instance, infos []core.SetInfo, assoc *wlan.Assoc, lVar int) []float64 {
	x := make([]float64, lVar+1)
	// Realized per-(AP, session) minimum rates.
	type key struct{ ap, session int }
	minRate := make(map[key]float64)
	for u := 0; u < n.NumUsers(); u++ {
		ap := assoc.APOf(u)
		if ap == wlan.Unassociated {
			continue
		}
		r, _ := n.TxRate(ap, u)
		k := key{ap, n.UserSession(u)}
		if cur, ok := minRate[k]; !ok || float64(r) < cur {
			minRate[k] = float64(r)
		}
	}
	for j, info := range infos {
		if r, ok := minRate[key{info.AP, info.Session}]; ok && float64(info.Rate) == r {
			x[j] = 1
		}
	}
	x[lVar] = n.MaxLoad(assoc)
	return x
}
