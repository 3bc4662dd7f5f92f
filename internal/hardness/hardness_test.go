package hardness

import (
	"math"
	"math/rand"
	"testing"

	"wlanmcast/internal/core"
	"wlanmcast/internal/optimal"
)

// subsetSumBruteForce reports whether some subset of g sums to target.
func subsetSumBruteForce(g []int, target int) bool {
	for mask := 0; mask < 1<<uint(len(g)); mask++ {
		sum := 0
		for i := range g {
			if mask>>uint(i)&1 == 1 {
				sum += g[i]
			}
		}
		if sum == target {
			return true
		}
	}
	return false
}

// makespanBruteForce returns the optimal makespan of jobs p on m
// machines.
func makespanBruteForce(p []int, m int) int {
	loads := make([]int, m)
	best := math.MaxInt
	var dfs func(i int)
	dfs = func(i int) {
		if i == len(p) {
			mx := 0
			for _, l := range loads {
				if l > mx {
					mx = l
				}
			}
			if mx < best {
				best = mx
			}
			return
		}
		for j := 0; j < m; j++ {
			loads[j] += p[i]
			dfs(i + 1)
			loads[j] -= p[i]
		}
	}
	dfs(0)
	return best
}

// coverBruteForce returns the minimum number of subsets covering all
// coverable elements.
func coverBruteForce(numElements int, subsets [][]int) int {
	coverable := make([]bool, numElements)
	for _, s := range subsets {
		for _, e := range s {
			coverable[e] = true
		}
	}
	best := math.MaxInt
	for mask := 0; mask < 1<<uint(len(subsets)); mask++ {
		covered := make([]bool, numElements)
		size := 0
		for j := range subsets {
			if mask>>uint(j)&1 == 1 {
				size++
				for _, e := range subsets[j] {
					covered[e] = true
				}
			}
		}
		ok := true
		for e := 0; e < numElements; e++ {
			if coverable[e] && !covered[e] {
				ok = false
				break
			}
		}
		if ok && size < best {
			best = size
		}
	}
	return best
}

func TestSubsetSumReductionCorrespondence(t *testing.T) {
	// Theorem 7: the WLAN serves exactly T users iff the subset-sum
	// instance is a yes-instance. Check both directions over random
	// instances via the exact MNU solver.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		k := 2 + rng.Intn(3)
		g := make([]int, k)
		total := 0
		for i := range g {
			g[i] = 1 + rng.Intn(4)
			total += g[i]
		}
		target := 1 + rng.Intn(total)
		n, wantUsers, err := SubsetSumToMNU(g, target)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Evaluate(&optimal.MNU{}, n)
		if err != nil {
			t.Fatal(err)
		}
		yes := subsetSumBruteForce(g, target)
		if yes && res.Satisfied < wantUsers {
			t.Fatalf("trial %d: g=%v T=%d is a yes-instance but MNU optimum = %d < %d",
				trial, g, target, res.Satisfied, wantUsers)
		}
		if res.Satisfied > wantUsers {
			t.Fatalf("trial %d: MNU served %d users over budget-implied %d", trial, res.Satisfied, wantUsers)
		}
		if !yes && res.Satisfied == wantUsers {
			t.Fatalf("trial %d: g=%v T=%d is a no-instance but MNU reached %d",
				trial, g, target, wantUsers)
		}
	}
}

func TestSubsetSumReductionPartialSessionsDontPay(t *testing.T) {
	// The proof counts a session's full g_i users only when the whole
	// session is admitted (its load is g_i regardless of how many of
	// its users associate) — MNU may still serve partial sessions but
	// can never beat T users.
	n, want, err := SubsetSumToMNU([]int{3, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Evaluate(&optimal.MNU{}, n)
	if err != nil {
		t.Fatal(err)
	}
	// {3,5} cannot hit 4 exactly with whole sessions; the optimum is
	// still 4 users (session of 3 fully + 1 user of the 5-session at
	// the same session load? No: serving any user of session 2 costs
	// its full load 5 > remaining 1). So optimum = 3 < 4.
	if res.Satisfied >= want {
		t.Fatalf("no-instance reached target: %d >= %d", res.Satisfied, want)
	}
	if res.Satisfied != 3 {
		t.Errorf("optimum = %d, want 3", res.Satisfied)
	}
}

func TestMakespanReductionCorrespondence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		nJobs := 2 + rng.Intn(4)
		m := 2 + rng.Intn(2)
		p := make([]int, nJobs)
		for i := range p {
			p[i] = 1 + rng.Intn(5)
		}
		n, scale, err := MakespanToBLA(p, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Evaluate(&optimal.BLA{}, n)
		if err != nil {
			t.Fatal(err)
		}
		want := makespanBruteForce(p, m)
		got := res.MaxLoad * scale
		if math.Abs(got-float64(want)) > 1e-6 {
			t.Fatalf("trial %d: jobs %v on %d machines: BLA optimum %v, makespan %d",
				trial, p, m, got, want)
		}
	}
}

func TestSetCoverReductionCorrespondence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		nElems := 3 + rng.Intn(4)
		nSets := 2 + rng.Intn(4)
		subsets := make([][]int, nSets)
		for j := range subsets {
			for e := 0; e < nElems; e++ {
				if rng.Intn(2) == 0 {
					subsets[j] = append(subsets[j], e)
				}
			}
			if len(subsets[j]) == 0 {
				subsets[j] = append(subsets[j], rng.Intn(nElems))
			}
		}
		const c = 0.1
		n, err := SetCoverToMLA(nElems, subsets, c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Evaluate(&optimal.MLA{}, n)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(coverBruteForce(nElems, subsets)) * c
		if math.Abs(res.TotalLoad-want) > 1e-6 {
			t.Fatalf("trial %d: MLA optimum %v, cover optimum %v", trial, res.TotalLoad, want)
		}
	}
}

func TestReductionValidation(t *testing.T) {
	if _, _, err := SubsetSumToMNU(nil, 1); err == nil {
		t.Error("empty subset-sum should error")
	}
	if _, _, err := SubsetSumToMNU([]int{0}, 1); err == nil {
		t.Error("non-natural g should error")
	}
	if _, _, err := SubsetSumToMNU([]int{2}, 5); err == nil {
		t.Error("target above total should error")
	}
	if _, _, err := MakespanToBLA(nil, 2); err == nil {
		t.Error("empty jobs should error")
	}
	if _, _, err := MakespanToBLA([]int{1, -1}, 2); err == nil {
		t.Error("negative job should error")
	}
	if _, err := SetCoverToMLA(0, nil, 0.1); err == nil {
		t.Error("empty cover instance should error")
	}
	if _, err := SetCoverToMLA(2, [][]int{{0}}, 2); err == nil {
		t.Error("cost above 1 should error")
	}
	if _, err := SetCoverToMLA(2, [][]int{{7}}, 0.5); err == nil {
		t.Error("unknown element should error")
	}
}
