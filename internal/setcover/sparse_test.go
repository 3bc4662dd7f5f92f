package setcover

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The sparse coverage state must reproduce the dense reference greedy
// (dense_test.go) exactly: same picks in the same order, same
// coverage, same costs, same errors.

// diffBStars are the SCG budget guesses the differential runs at, from
// far too tight (incomplete covers, cost-blocked sets) to loose.
var diffBStars = []float64{0.05, 0.25, 0.5, 1, 4}

// randomDiffInstance draws an instance with the shapes the sparse
// state must handle like the bitsets did: repeated elements inside a
// set, empty sets, zero-cost sets, elements no set covers, cost ties,
// and budgets tight enough to cost-block sets. With noGroup, some sets
// belong to no group (valid for GreedyCover only).
func randomDiffInstance(rng *rand.Rand, noGroup bool) *Instance {
	n := 1 + rng.Intn(30)
	groups := 1 + rng.Intn(4)
	in := &Instance{NumElements: n, NumGroups: groups}
	for g := 0; g < groups; g++ {
		in.Budgets = append(in.Budgets, float64(rng.Intn(7))/4)
	}
	// The top few elements may stay uncoverable.
	reach := n - rng.Intn(1+n/4)
	m := rng.Intn(26)
	for i := 0; i < m; i++ {
		s := Set{Group: rng.Intn(groups), Cost: float64(rng.Intn(5)) / 4}
		if rng.Intn(4) == 0 {
			s.Cost = rng.Float64()
		}
		if noGroup && rng.Intn(3) == 0 {
			s.Group = NoGroup
		}
		size := rng.Intn(7)
		for j := 0; j < size; j++ {
			s.Elems = append(s.Elems, rng.Intn(reach))
		}
		in.Sets = append(in.Sets, s)
	}
	return in
}

// requireSameGreedy runs the three greedy algorithms, sparse and
// dense, on in and fails on any difference.
func requireSameGreedy(t *testing.T, in *Instance, bStars []float64) {
	t.Helper()
	same := func(what string, got, want any, gotErr, wantErr error) {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: sparse error %v, dense error %v\ninstance %+v", what, gotErr, wantErr, in)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sparse %+v\ndense %+v\ninstance %+v", what, got, want, in)
		}
	}
	gc, err := GreedyCover(in)
	dc, derr := denseGreedyCover(in)
	same("GreedyCover", gc, dc, err, derr)
	gm, err := GreedyMCG(in)
	dm, derr := denseGreedyMCG(in)
	same("GreedyMCG", gm, dm, err, derr)
	for _, b := range bStars {
		for _, iters := range []int{0, 1, 3} {
			gs, err := GreedySCG(in, b, iters)
			ds, derr := denseGreedySCG(in, b, iters)
			same("GreedySCG", gs, ds, err, derr)
		}
	}
}

// requireSolverReuse runs one Solver's SCG at every bStar, in the
// given order, and requires each result to deep-equal a fresh
// GreedySCG. Each returned Covered is then overwritten, so a result
// that aliased the Solver's state would corrupt the next call.
func requireSolverReuse(t *testing.T, in *Instance, bStars []float64) {
	t.Helper()
	s, err := NewSolver(in)
	if _, ferr := GreedySCG(in, 1, 0); (err == nil) != (ferr == nil) || err != nil && err.Error() != ferr.Error() {
		t.Fatalf("NewSolver error %v, GreedySCG error %v\ninstance %+v", err, ferr, in)
	}
	if err != nil {
		return
	}
	for _, b := range bStars {
		for _, iters := range []int{0, 1, 3} {
			got, err := s.SCG(b, iters)
			want, werr := GreedySCG(in, b, iters)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("SCG(%v, %d): reused error %v, fresh error %v", b, iters, err, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("SCG(%v, %d): reused %+v\nfresh %+v\ninstance %+v", b, iters, got, want, in)
			}
			if got != nil {
				for e := range got.Covered {
					got.Covered[e] = !got.Covered[e]
				}
			}
		}
	}
}

func TestSolverReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		bStars := slices.Clone(diffBStars)
		rng.Shuffle(len(bStars), func(i, j int) { bStars[i], bStars[j] = bStars[j], bStars[i] })
		requireSolverReuse(t, randomDiffInstance(rng, trial%5 == 0), append(bStars, bStars[0]))
	}
	requireSolverReuse(t, &Instance{NumGroups: 1, Budgets: []float64{1}}, diffBStars)
	requireSolverReuse(t, figure7(), []float64{4, 0.25, 1, 0.05, 0.5, 4})
	s, err := NewSolver(figure7())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SCG(0, 0); err == nil {
		t.Fatal("SCG accepted a zero budget guess")
	}
}

func TestGreedySparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 600; trial++ {
		requireSameGreedy(t, randomDiffInstance(rng, trial%5 == 0), diffBStars)
	}
	// Edge shapes: no sets, no elements, only empty sets.
	requireSameGreedy(t, &Instance{NumGroups: 1, Budgets: []float64{1}}, diffBStars)
	requireSameGreedy(t, &Instance{NumElements: 3, NumGroups: 1, Budgets: []float64{1},
		Sets: []Set{{Group: 0, Cost: 1}, {Group: 0}}}, diffBStars)
	requireSameGreedy(t, figure7(), diffBStars)
	requireSameGreedy(t, figure2(), diffBStars)
}

// instanceFromBytes decodes a fuzz input into a small valid instance:
// one byte each for the element count, group count, budgets, set
// count, and per set its group (or NoGroup), cost, size and elements.
// Missing bytes read as zero.
func instanceFromBytes(data []byte) *Instance {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	in := &Instance{NumElements: 1 + next()%24, NumGroups: next() % 4}
	for g := 0; g < in.NumGroups; g++ {
		in.Budgets = append(in.Budgets, float64(next()%8)/4)
	}
	m := next() % 20
	for i := 0; i < m; i++ {
		s := Set{Group: next()%(in.NumGroups+1) - 1, Cost: float64(next()%6) / 4}
		for size := next() % 8; size > 0; size-- {
			s.Elems = append(s.Elems, next()%in.NumElements)
		}
		in.Sets = append(in.Sets, s)
	}
	return in
}

func FuzzGreedySparse(f *testing.F) {
	f.Add([]byte{5, 2, 4, 2, 3, 0, 1, 2, 0, 1, 1, 2, 3, 3, 1, 4, 4})
	f.Add([]byte{20, 3, 1, 1, 0, 12, 1, 0, 3, 5, 5, 5, 2, 1, 6, 0, 7, 7, 3, 9})
	f.Add([]byte{1, 0, 4, 0, 2, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var bStar float64
		if len(data) > 0 {
			bStar = float64(data[len(data)-1]%16+1) / 8
		}
		in := instanceFromBytes(data)
		requireSameGreedy(t, in, []float64{bStar})
		requireSolverReuse(t, in, []float64{bStar, bStar / 3, 2 * bStar, bStar})
	})
}
