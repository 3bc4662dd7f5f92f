// Package hardness implements the paper's NP-hardness reductions
// (Appendix A, B, C) as executable constructions: given an instance
// of the source problem, each builds the WLAN whose optimal
// association answers it. The tests solve both sides — the source
// problem by brute force, the WLAN by the exact solvers — and check
// the correspondence the proofs claim, turning the paper's hardness
// arguments into verified code. The package has only test files: no
// program builds these networks.
package hardness

import (
	"fmt"

	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// SubsetSumToMNU is the Appendix A reduction: an instance
// (g_1..g_k, T) of Subset Sum becomes a single-AP WLAN with k
// sessions, where session i has g_i users on unit-rate links and
// load g_i when transmitted. The AP's multicast budget is T. The
// subset-sum instance is a yes-instance iff the MNU optimum serves
// exactly T users (scaled: all numbers are divided by scale so loads
// stay below 1, per the proof's final remark).
//
// It returns the network and the user count corresponding to target T.
func SubsetSumToMNU(g []int, target int) (*wlan.Network, int, error) {
	if len(g) == 0 {
		return nil, 0, fmt.Errorf("hardness: empty subset-sum instance")
	}
	total := 0
	for i, v := range g {
		if v <= 0 {
			return nil, 0, fmt.Errorf("hardness: g[%d] = %d is not a natural number", i, v)
		}
		total += v
	}
	if target <= 0 || target > total {
		return nil, 0, fmt.Errorf("hardness: target %d outside (0, %d]", target, total)
	}
	// Scale so every load is <= 1: divide by the sum of all g (the
	// largest conceivable load). Unit data rate = "scale" Mbps keeps
	// session rate / link rate = g_i / scale.
	scale := float64(total)
	nUsers := total
	rates := make([][]radio.Mbps, 1)
	rates[0] = make([]radio.Mbps, nUsers)
	userSession := make([]int, nUsers)
	sessions := make([]wlan.Session, len(g))
	u := 0
	for i, gi := range g {
		sessions[i] = wlan.Session{Rate: radio.Mbps(float64(gi) / scale), Name: fmt.Sprintf("s%d", i+1)}
		for rep := 0; rep < gi; rep++ {
			rates[0][u] = 1 // unit data rate to the single AP
			userSession[u] = i
			u++
		}
	}
	budget := float64(target) / scale
	n, err := wlan.NewFromRates(rates, userSession, sessions, budget)
	if err != nil {
		return nil, 0, err
	}
	return n, target, nil
}

// MakespanToBLA is the Appendix B reduction: n jobs with processing
// times p_1..p_n on m identical machines become m APs (each a
// machine) that can all reach every user at one common rate, with one
// session per job whose load is p_i. Minimizing the max AP load under
// the constraint that every user is served is exactly minimizing the
// makespan (scaled below 1).
//
// Each job gets one user requesting its session; the returned scale
// converts a BLA max load back into makespan units.
func MakespanToBLA(p []int, machines int) (*wlan.Network, float64, error) {
	if len(p) == 0 || machines <= 0 {
		return nil, 0, fmt.Errorf("hardness: need jobs and machines")
	}
	total := 0
	for i, v := range p {
		if v <= 0 {
			return nil, 0, fmt.Errorf("hardness: p[%d] = %d is not positive", i, v)
		}
		total += v
	}
	scale := float64(total)
	rates := make([][]radio.Mbps, machines)
	for a := range rates {
		rates[a] = make([]radio.Mbps, len(p))
		for u := range rates[a] {
			rates[a][u] = 1 // every AP reaches every user at one rate
		}
	}
	sessions := make([]wlan.Session, len(p))
	userSession := make([]int, len(p))
	for i, pi := range p {
		sessions[i] = wlan.Session{Rate: radio.Mbps(float64(pi) / scale), Name: fmt.Sprintf("job%d", i+1)}
		userSession[i] = i
	}
	n, err := wlan.NewFromRates(rates, userSession, sessions, 1)
	if err != nil {
		return nil, 0, err
	}
	return n, scale, nil
}

// SetCoverToMLA is the Appendix C reduction (cardinality version):
// ground set X = users, subsets S_1..S_m = APs, where AP j reaches
// exactly the users in S_j over unit-rate links, and everyone
// requests one common session of load c. The minimum total multicast
// load is c times the minimum cover size.
func SetCoverToMLA(numElements int, subsets [][]int, c float64) (*wlan.Network, error) {
	if numElements <= 0 || len(subsets) == 0 {
		return nil, fmt.Errorf("hardness: empty set-cover instance")
	}
	if c <= 0 || c > 1 {
		return nil, fmt.Errorf("hardness: per-set cost %v outside (0, 1]", c)
	}
	rates := make([][]radio.Mbps, len(subsets))
	for j, s := range subsets {
		rates[j] = make([]radio.Mbps, numElements)
		for _, e := range s {
			if e < 0 || e >= numElements {
				return nil, fmt.Errorf("hardness: subset %d contains unknown element %d", j, e)
			}
			rates[j][e] = 1
		}
	}
	sessions := []wlan.Session{{Rate: radio.Mbps(c), Name: "shared"}}
	userSession := make([]int, numElements)
	return wlan.NewFromRates(rates, userSession, sessions, 1)
}
