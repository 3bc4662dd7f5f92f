package wlan

import (
	"math/rand"
	"reflect"
	"testing"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
)

// TestSparseMatchesBruteForce pins the sparse spatial core against
// ground truth: a grid-indexed NewGeometric must produce exactly the
// links an all-pairs scan of the rate table produces, for small
// networks and for ones large enough to take the parallel chunked
// construction path.
func TestSparseMatchesBruteForce(t *testing.T) {
	table := radio.Table1()
	sessions := []Session{{Rate: 1}, {Rate: 2}}
	for _, tc := range []struct {
		seed         int64
		nAPs, nUsers int
	}{
		{seed: 1, nAPs: 5, nUsers: 30},
		{seed: 2, nAPs: 40, nUsers: 200},
		// > parallelChunk users: exercises the parallel chunk fan-out.
		{seed: 3, nAPs: 64, nUsers: parallelChunk + 500},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		area := geom.Rect{Width: 1200, Height: 1000}
		apPos := geom.UniformPoints(rng, tc.nAPs, area)
		userPos := geom.UniformPoints(rng, tc.nUsers, area)
		userSession := make([]int, tc.nUsers)
		for u := range userSession {
			userSession[u] = rng.Intn(len(sessions))
		}
		n, err := NewGeometric(area, apPos, userPos, userSession, sessions, table, DefaultBudget)
		if err != nil {
			t.Fatal(err)
		}
		links := 0
		for u := 0; u < tc.nUsers; u++ {
			var wantNbrs []int
			for a := 0; a < tc.nAPs; a++ {
				want := radio.Mbps(0)
				if r, ok := table.RateFor(apPos[a].Dist(userPos[u])); ok {
					want = r
					wantNbrs = append(wantNbrs, a)
					links++
				}
				if got := n.LinkRate(a, u); got != want {
					t.Fatalf("seed %d: LinkRate(%d, %d) = %v, brute force says %v",
						tc.seed, a, u, got, want)
				}
				if got := n.Reachable(a, u); got != (want > 0) {
					t.Fatalf("seed %d: Reachable(%d, %d) = %v, want %v",
						tc.seed, a, u, got, want > 0)
				}
			}
			if got := n.NeighborAPs(u); !reflect.DeepEqual(got, wantNbrs) && len(got)+len(wantNbrs) > 0 {
				t.Fatalf("seed %d: NeighborAPs(%d) = %v, want %v", tc.seed, u, got, wantNbrs)
			}
		}
		if got := n.NumLinks(); got != links {
			t.Fatalf("seed %d: NumLinks = %d, brute force counts %d", tc.seed, got, links)
		}
		// Coverage lists must be the exact transpose, ascending.
		for a := 0; a < tc.nAPs; a++ {
			var want []int
			for u := 0; u < tc.nUsers; u++ {
				if n.Reachable(a, u) {
					want = append(want, u)
				}
			}
			if got := n.Coverage(a); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("seed %d: Coverage(%d) = %v, want %v", tc.seed, a, got, want)
			}
		}
	}
}

// TestDenseReferenceMatchesSparse pins NewGeometricDense — the
// brute-force reference the differential suite and the scale benchmark
// lean on — against NewGeometric from inside the package, so the
// reference itself cannot drift silently.
func TestDenseReferenceMatchesSparse(t *testing.T) {
	table := radio.Table1()
	sessions := []Session{{Rate: 1}, {Rate: 2}, {Rate: 4}}
	rng := rand.New(rand.NewSource(11))
	area := geom.Rect{Width: 900, Height: 700}
	apPos := geom.UniformPoints(rng, 25, area)
	userPos := geom.UniformPoints(rng, 120, area)
	userSession := make([]int, len(userPos))
	for u := range userSession {
		userSession[u] = rng.Intn(len(sessions))
	}
	sparse, err := NewGeometric(area, apPos, userPos, userSession, sessions, table, DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewGeometricDense(area, apPos, userPos, userSession, sessions, table, DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Geometric() {
		t.Error("dense reference must be geometric (SSA tie-breaks by distance)")
	}
	if got, want := dense.NumLinks(), sparse.NumLinks(); got != want {
		t.Fatalf("NumLinks: dense %d, sparse %d", got, want)
	}
	if !reflect.DeepEqual(dense.RateSet(), sparse.RateSet()) {
		t.Fatalf("RateSet: dense %v, sparse %v", dense.RateSet(), sparse.RateSet())
	}
	for u := range userPos {
		if !reflect.DeepEqual(dense.NeighborAPs(u), sparse.NeighborAPs(u)) {
			t.Fatalf("NeighborAPs(%d): dense %v, sparse %v",
				u, dense.NeighborAPs(u), sparse.NeighborAPs(u))
		}
		for a := range apPos {
			if dense.LinkRate(a, u) != sparse.LinkRate(a, u) {
				t.Fatalf("LinkRate(%d, %d): dense %v, sparse %v",
					a, u, dense.LinkRate(a, u), sparse.LinkRate(a, u))
			}
		}
	}
	for a := range apPos {
		if !reflect.DeepEqual(dense.Coverage(a), sparse.Coverage(a)) {
			t.Fatalf("Coverage(%d): dense %v, sparse %v",
				a, dense.Coverage(a), sparse.Coverage(a))
		}
	}
}

// TestNewGeometricDenseRejects covers the reference constructor's
// validation branches, which must reject exactly what NewGeometric
// rejects.
func TestNewGeometricDenseRejects(t *testing.T) {
	area := geom.Square(100)
	sessions := []Session{{Rate: 1}}
	ok := []geom.Point{{X: 1, Y: 1}}
	if _, err := NewGeometricDense(area, ok, ok, []int{0}, sessions, nil, DefaultBudget); err == nil {
		t.Error("nil rate table should fail")
	}
	if _, err := NewGeometricDense(area, ok, ok, []int{0, 1}, sessions, radio.Table1(), DefaultBudget); err == nil {
		t.Error("position/session length mismatch should fail")
	}
	bad := []geom.Point{{X: 1, Y: 1}}
	bad[0].X = bad[0].X / 0 // +Inf
	if _, err := NewGeometricDense(area, bad, nil, nil, sessions, radio.Table1(), DefaultBudget); err == nil {
		t.Error("non-finite AP position should fail grid construction")
	}
	if _, err := NewGeometricDense(area, ok, ok, []int{7}, sessions, radio.Table1(), DefaultBudget); err == nil {
		t.Error("out-of-range session index should fail finish validation")
	}
}

func TestNewGeometricRejectsBadAPPosition(t *testing.T) {
	bad := []geom.Point{{X: 1, Y: 1}}
	bad[0].X = bad[0].X / 0 // +Inf
	_, err := NewGeometric(geom.Square(100), bad, nil, nil,
		[]Session{{Rate: 1}}, radio.Table1(), DefaultBudget)
	if err == nil {
		t.Fatal("non-finite AP position should fail grid construction")
	}
}

func TestGeometricAccessors(t *testing.T) {
	apPos := []geom.Point{{X: 0, Y: 0}}
	userPos := []geom.Point{{X: 30, Y: 40}} // distance 50
	n, err := NewGeometric(geom.Square(100), apPos, userPos, []int{0},
		[]Session{{Rate: 3}}, radio.Table1(), DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Geometric() {
		t.Error("Geometric() = false for a geometric network")
	}
	if got := n.Distance(0, 0); got != 50 {
		t.Errorf("Distance = %v, want 50", got)
	}
	if got := n.SessionRate(0); got != 3 {
		t.Errorf("SessionRate = %v, want 3", got)
	}

	flat, err := NewFromRates([][]radio.Mbps{{6}}, []int{0}, []Session{{Rate: 1}}, DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Geometric() {
		t.Error("Geometric() = true for an explicit-rate network")
	}
	if got := flat.Distance(0, 0); got != 0 {
		t.Errorf("Distance on explicit-rate network = %v, want 0", got)
	}
}

// TestRateSetEmptyNetwork covers the no-links corner: an all-zero rate
// matrix has no usable rates in either mode.
func TestRateSetEmptyNetwork(t *testing.T) {
	n, err := NewFromRates([][]radio.Mbps{{0, 0}}, []int{0, 0}, []Session{{Rate: 1}}, DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if rs := n.RateSet(); len(rs) != 0 {
		t.Errorf("RateSet = %v, want empty", rs)
	}
	n.BasicRateOnly = true
	if rs := n.RateSet(); rs != nil {
		t.Errorf("basic-rate-only RateSet = %v, want nil", rs)
	}
	if n.BasicRate() != 0 {
		t.Errorf("BasicRate = %v, want 0", n.BasicRate())
	}
}

// TestPairHelpers exercises the sorted parallel-slice primitives the
// dynamic and fault paths are built on, including the branches churn
// rarely hits (overwrite on insert, no-op remove and set).
func TestPairHelpers(t *testing.T) {
	ids := []int{2, 5}
	rates := []radio.Mbps{6, 12}

	ids, rates = insertPair(ids, rates, 3, 9)
	if want := []int{2, 3, 5}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("insertPair ids = %v, want %v", ids, want)
	}
	if want := []radio.Mbps{6, 9, 12}; !reflect.DeepEqual(rates, want) {
		t.Fatalf("insertPair rates = %v, want %v", rates, want)
	}

	// Inserting an existing id overwrites its rate in place.
	ids, rates = insertPair(ids, rates, 3, 24)
	if want := []int{2, 3, 5}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("insertPair (dup) ids = %v, want %v", ids, want)
	}
	if rates[1] != 24 {
		t.Fatalf("insertPair (dup) rate = %v, want 24", rates[1])
	}

	setPairRate(ids, rates, 5, 48)
	if rates[2] != 48 {
		t.Fatalf("setPairRate = %v, want 48", rates[2])
	}
	setPairRate(ids, rates, 99, 54) // missing id: no-op
	if want := []radio.Mbps{6, 24, 48}; !reflect.DeepEqual(rates, want) {
		t.Fatalf("setPairRate (missing) mutated rates: %v", rates)
	}

	ids, rates = removePair(ids, rates, 3)
	if want := []int{2, 5}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("removePair ids = %v, want %v", ids, want)
	}
	ids, rates = removePair(ids, rates, 99) // missing id: no-op
	if len(ids) != 2 || len(rates) != 2 {
		t.Fatalf("removePair (missing) mutated pair: %v %v", ids, rates)
	}
}

// TestMoveUserWhileTwoAPsDown drives physLinks through its merge path:
// the moved user's physical link set spans live APs and multiple dark
// rows, and recovery must surface exactly the post-move links.
func TestMoveUserWhileTwoAPsDown(t *testing.T) {
	apPos := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 0}}
	userPos := []geom.Point{{X: 150, Y: 10}}
	n, err := NewGeometric(geom.Rect{Width: 300, Height: 100}, apPos, userPos,
		[]int{0}, []Session{{Rate: 1}}, radio.Table1(), DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.DisableAP(0); err != nil {
		t.Fatal(err)
	}
	if err := n.DisableAP(2); err != nil {
		t.Fatal(err)
	}
	// Move next to AP 0 while 0 and 2 are dark: the physical rows must
	// re-derive (0 gains a strong link, 2 loses its link).
	if err := n.MoveUser(0, geom.Point{X: 5, Y: 0}); err != nil {
		t.Fatal(err)
	}
	if got := n.NeighborAPs(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("live neighbors while down = %v, want [1]", got)
	}
	if err := n.EnableAP(0); err != nil {
		t.Fatal(err)
	}
	if err := n.EnableAP(2); err != nil {
		t.Fatal(err)
	}
	assertSurvivorMatch(t, n)
	want, _ := radio.Table1().RateFor(5)
	if got := n.LinkRate(0, 0); got != want {
		t.Fatalf("restored LinkRate = %v, want %v", got, want)
	}
	if n.Reachable(2, 0) {
		t.Fatal("user moved out of AP 2's range while it was down; link must not survive recovery")
	}
}
