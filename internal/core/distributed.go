package core

import (
	"fmt"
	"slices"
	"strings"

	"wlanmcast/internal/obs"
	"wlanmcast/internal/wlan"
)

// Objective selects which distributed local rule a user applies.
type Objective int

// Distributed objectives. MNU and MLA share the same rule (paper
// §6.2): join the neighbor AP that increases the total neighborhood
// load the least. BLA lexicographically minimizes the sorted vector of
// neighboring AP loads (§5.2).
const (
	ObjMNU Objective = iota + 1
	ObjBLA
	ObjMLA
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case ObjMNU:
		return "MNU"
	case ObjBLA:
		return "BLA"
	case ObjMLA:
		return "MLA"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective maps mnu, bla or mla to its Objective; any other
// spelling is an error. Journal replay re-checks a scenario record's
// error outcome, so the accepted set must not widen.
func ParseObjective(name string) (Objective, error) {
	for _, o := range []Objective{ObjMNU, ObjBLA, ObjMLA} {
		if name == strings.ToLower(o.String()) {
			return o, nil
		}
	}
	return 0, fmt.Errorf("unknown objective %q", name)
}

// loadEps absorbs floating-point noise in "strictly better" tests; a
// move must improve by more than this to be taken, which is what makes
// the sequential process terminate.
const loadEps = 1e-9

// Distributed runs the paper's distributed algorithms: users decide
// one by one from local information (their neighbor APs' current
// loads), repeating rounds until a full round changes nothing.
type Distributed struct {
	// Objective picks the local rule.
	Objective Objective
	// EnforceBudget refuses joins that would push an AP past its
	// budget. The paper's distributed MNU always enforces it; for
	// BLA/MLA runs where all users must be served it is typically off.
	EnforceBudget bool
	// MaxRounds bounds the sequential rounds (0 = DefaultMaxRounds).
	MaxRounds int
	// Order optionally fixes the user decision order (a permutation
	// of user IDs); nil means increasing ID.
	Order []int
	// Start optionally seeds the run with an existing association
	// (users then re-evaluate it); nil starts everyone unassociated.
	Start *wlan.Assoc
	// Hysteresis, when positive, raises the improvement a move must
	// achieve before it is taken: a user only leaves its AP when the
	// objective improves by more than this threshold (instead of the
	// float-noise epsilon). The online engine uses it to damp
	// Figure-4-style oscillation under churn; batch runs leave it 0.
	Hysteresis float64
	// Obs, when set, receives algo_convergence_rounds_total and
	// algo_moves_total (labelled by objective) plus
	// algo_runs_converged_total.
	Obs *obs.Registry
	// Trace, when active, receives one EvRound event per sequential
	// round (Round = 1-based index, N = moves in the round).
	Trace obs.Recorder
}

var _ Algorithm = (*Distributed)(nil)

// DefaultMaxRounds bounds sequential rounds when unset. Convergence is
// guaranteed (Lemmas 1-2) but the bound keeps adversarial float
// accumulation from looping.
const DefaultMaxRounds = 100

// Name implements Algorithm.
func (d *Distributed) Name() string { return d.Objective.String() + "-distributed" }

// Run implements Algorithm.
func (d *Distributed) Run(n *wlan.Network) (*wlan.Assoc, error) {
	res, err := d.RunDetailed(n)
	if err != nil {
		return nil, err
	}
	return res.Assoc, nil
}

// DistributedResult carries convergence detail beyond the association.
type DistributedResult struct {
	Assoc *wlan.Assoc
	// Rounds is the number of full passes executed.
	Rounds int
	// Moves is the total number of association changes.
	Moves int
	// Converged reports whether the last round made no changes.
	Converged bool
	// Decisions is the number of decisions evaluated. A user none of
	// whose APs changed since it last stayed is skipped, so this is at
	// most Rounds × users and usually well below.
	Decisions int
}

// RunDetailed runs the sequential distributed process and reports
// convergence statistics.
func (d *Distributed) RunDetailed(n *wlan.Network) (*DistributedResult, error) {
	if err := d.validate(n); err != nil {
		return nil, err
	}
	tr, err := wlan.NewTracker(n, d.Start)
	if err != nil {
		return nil, err
	}
	order := d.order(n)
	maxRounds := d.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	ri := newRoundInstruments(d.Obs, d.Trace, d.Name(), d.Objective.String())
	res := &DistributedResult{}
	// A decision reads only the tracker state of u's neighbour APs and
	// of its current AP (which a down AP can leave outside that list),
	// plus static network data. A user that stayed and none of whose
	// APs changed since would stay again, so it is skipped. clock
	// counts moves, apAt[a] is the clock at a's last change, and
	// seenAt[u] is the clock at u's last stay, -1 while u must decide.
	clock := 0
	apAt := make([]int, n.NumAPs())
	seenAt := make([]int, n.NumUsers())
	for u := range seenAt {
		seenAt[u] = -1
	}
	for res.Rounds < maxRounds {
		res.Rounds++
		changed := 0
		for _, u := range order {
			from := tr.APOf(u)
			if seenAt[u] >= 0 && !apsChangedSince(n, u, from, apAt, seenAt[u]) {
				continue
			}
			res.Decisions++
			moved, err := d.decide(n, tr, u)
			if err != nil {
				return nil, err
			}
			if !moved {
				seenAt[u] = clock
				continue
			}
			changed++
			clock++
			if from != wlan.Unassociated {
				apAt[from] = clock
			}
			apAt[tr.APOf(u)] = clock
			seenAt[u] = -1
		}
		res.Moves += changed
		ri.round(res.Rounds, changed)
		if changed == 0 {
			res.Converged = true
			break
		}
	}
	if d.Obs != nil {
		converged := "false"
		if res.Converged {
			converged = "true"
		}
		d.Obs.Counter("algo_runs_converged_total", "Distributed runs, by objective and whether they converged.",
			obs.L("objective", d.Objective.String()), obs.L("converged", converged)).Inc()
	}
	res.Assoc = tr.Assoc()
	return res, nil
}

// apsChangedSince reports whether user u's current AP cur or one of its
// neighbour APs changed after clock seen.
func apsChangedSince(n *wlan.Network, u, cur int, apAt []int, seen int) bool {
	if cur != wlan.Unassociated && apAt[cur] > seen {
		return true
	}
	for _, a := range n.NeighborAPs(u) {
		if apAt[a] > seen {
			return true
		}
	}
	return false
}

func (d *Distributed) validate(n *wlan.Network) error {
	switch d.Objective {
	case ObjMNU, ObjBLA, ObjMLA:
	default:
		return fmt.Errorf("core: invalid distributed objective %d", int(d.Objective))
	}
	if d.Order != nil {
		if len(d.Order) != n.NumUsers() {
			return fmt.Errorf("core: order has %d entries for %d users", len(d.Order), n.NumUsers())
		}
		seen := make([]bool, n.NumUsers())
		for _, u := range d.Order {
			if u < 0 || u >= n.NumUsers() || seen[u] {
				return fmt.Errorf("core: order is not a permutation of user IDs")
			}
			seen[u] = true
		}
	}
	return nil
}

func (d *Distributed) order(n *wlan.Network) []int {
	if d.Order != nil {
		return d.Order
	}
	order := make([]int, n.NumUsers())
	for i := range order {
		order[i] = i
	}
	return order
}

// decide lets user u re-evaluate its association against the tracker
// state, applying the move when it strictly improves the objective.
// It reports whether the association changed.
func (d *Distributed) decide(n *wlan.Network, tr *wlan.Tracker, u int) (bool, error) {
	target, improves := d.choose(n, tr, u)
	if target == wlan.Unassociated || target == tr.APOf(u) {
		return false, nil
	}
	if tr.APOf(u) != wlan.Unassociated && !improves {
		return false, nil
	}
	if err := tr.Move(u, target); err != nil {
		return false, err
	}
	return true, nil
}

// Choose returns the AP user u prefers under the rule, evaluated
// against the loads in tr (which may be a stale snapshot — that is how
// the protocol simulation models simultaneous decisions), and whether
// that choice strictly improves on u's current situation. For an
// unassociated user any feasible AP is an improvement.
func (d *Distributed) Choose(n *wlan.Network, tr *wlan.Tracker, u int) (int, bool) {
	return d.choose(n, tr, u)
}

// choose returns the AP user u prefers under the rule and whether that
// choice strictly improves on u's current situation. For an
// unassociated user any feasible AP is an improvement.
func (d *Distributed) choose(n *wlan.Network, tr *wlan.Tracker, u int) (int, bool) {
	switch d.Objective {
	case ObjBLA:
		return d.chooseBLA(n, tr, u)
	default:
		return d.chooseMinTotal(n, tr, u)
	}
}

// chooseMinTotal implements the §4.2/§6.2 rule: among feasible
// neighbor APs, join the one whose join minimizes the increase of the
// total load of the neighborhood; ties break toward the strongest
// signal (and then the lower AP ID).
func (d *Distributed) chooseMinTotal(n *wlan.Network, tr *wlan.Tracker, u int) (int, bool) {
	cur := tr.APOf(u)
	leaveLoad, _ := tr.LoadIfLeave(u)
	leaveDelta := 0.0
	if cur != wlan.Unassociated {
		leaveDelta = leaveLoad - tr.APLoad(cur)
	}
	best := wlan.Unassociated
	bestDelta := 0.0
	for _, a := range n.NeighborAPs(u) {
		var delta float64
		if a == cur {
			delta = 0
		} else {
			joinLoad, ok := tr.LoadIfJoin(u, a)
			if !ok {
				continue
			}
			if d.EnforceBudget && joinLoad > n.APs[a].Budget+loadEps {
				continue
			}
			delta = (joinLoad - tr.APLoad(a)) + leaveDelta
		}
		switch {
		case best == wlan.Unassociated,
			delta < bestDelta-loadEps:
			best, bestDelta = a, delta
		case delta < bestDelta+loadEps && betterTie(n, u, a, best):
			best, bestDelta = a, delta
		}
	}
	if best == wlan.Unassociated {
		return best, false
	}
	if cur == wlan.Unassociated {
		return best, true
	}
	// Moving must strictly reduce the total load (Lemma 1's potential)
	// by more than the hysteresis threshold.
	return best, bestDelta < -d.moveEps()
}

// moveEps is the improvement a move must exceed to be taken.
func (d *Distributed) moveEps() float64 {
	if d.Hysteresis > loadEps {
		return d.Hysteresis
	}
	return loadEps
}

// blaStack is the neighbourhood size chooseBLA keeps its vectors on
// the stack for; larger neighbourhoods fall back to the heap. Users at
// the paper's density have about 20 neighbours, 41 at most.
const blaStack = 64

// chooseBLA implements the §5.2 rule: the user computes, for each
// candidate AP, the vector of its neighboring APs' loads after the
// hypothetical move, sorted in non-increasing order, and joins the AP
// whose vector is lexicographically smallest (footnote 5).
//
// The current loads are sorted once per decision. A candidate's vector
// differs from that base in at most two entries (the target's join
// load and the current AP's leave load), so it is built by one O(k)
// merge into a reused buffer: the same multiset in the same order, so
// element for element the vector a fresh sort would give.
func (d *Distributed) chooseBLA(n *wlan.Network, tr *wlan.Tracker, u int) (int, bool) {
	cur := tr.APOf(u)
	neighbors := n.NeighborAPs(u)
	leaveLoad, _ := tr.LoadIfLeave(u)

	var baseBuf, bestBuf, candBuf [blaStack]float64
	base, bestVec, cand := baseBuf[:0], bestBuf[:0], candBuf[:0]
	if k := len(neighbors); k > blaStack {
		base, bestVec, cand = make([]float64, 0, k), make([]float64, 0, k), make([]float64, 0, k)
	}
	// A user whose AP is down may not list it among its neighbours;
	// then staying and moving both leave cur out of the vector.
	curNear := false
	for _, b := range neighbors {
		base = append(base, tr.APLoad(b))
		curNear = curNear || b == cur
	}
	slices.Sort(base)
	slices.Reverse(base)
	var curLoad float64
	if curNear {
		curLoad = tr.APLoad(cur)
	}

	best := wlan.Unassociated
	for _, a := range neighbors {
		if a == cur {
			cand = append(cand[:0], base...)
		} else {
			joinLoad, ok := tr.LoadIfJoin(u, a)
			if !ok {
				continue
			}
			if d.EnforceBudget && joinLoad > n.APs[a].Budget+loadEps {
				continue
			}
			cand = substituteLoads(cand[:0], base, tr.APLoad(a), joinLoad, curNear, curLoad, leaveLoad)
		}
		better := best == wlan.Unassociated
		if !better {
			switch wlan.CompareLoadVectors(cand, bestVec) {
			case -1:
				better = true
			case 0:
				better = betterTie(n, u, a, best)
			}
		}
		if better {
			best = a
			bestVec, cand = cand, bestVec
		}
	}
	if best == wlan.Unassociated {
		return best, false
	}
	if cur == wlan.Unassociated {
		return best, true
	}
	if best == cur {
		return best, false
	}
	// Moving must strictly reduce the sorted vector (Lemma 2), beyond
	// the hysteresis threshold when one is configured. Staying's vector
	// is the base.
	return best, wlan.CompareLoadVectorsEps(bestVec, base, d.moveEps()) < 0
}

// substituteLoads appends to dst the non-increasing vector base with
// one occurrence of out1 replaced by in1 and, when two is set, one
// occurrence of out2 replaced by in2, in non-increasing order.
func substituteLoads(dst, base []float64, out1, in1 float64, two bool, out2, in2 float64) []float64 {
	ins := [2]float64{in1, in2}
	nIns := 1
	if two {
		nIns = 2
		if in2 > in1 {
			ins[0], ins[1] = in2, in1
		}
	}
	skip1, skip2 := true, two
	next := 0
	for _, v := range base {
		switch {
		case skip1 && v == out1:
			skip1 = false
			continue
		case skip2 && v == out2:
			skip2 = false
			continue
		}
		for next < nIns && ins[next] >= v {
			dst = append(dst, ins[next])
			next++
		}
		dst = append(dst, v)
	}
	return append(dst, ins[next:nIns]...)
}

// betterTie breaks ties toward the stronger signal, then the current
// association (stability), then the lower AP ID.
func betterTie(n *wlan.Network, u, a, b int) bool {
	if strongerSignal(n, u, a, b) {
		return true
	}
	if strongerSignal(n, u, b, a) {
		return false
	}
	return a < b
}
