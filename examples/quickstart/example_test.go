package main

// Example runs the example and pins what it prints.
func Example() {
	main()
	// Output:
	// 2 APs, 5 users, 2 sessions (budget 1.0 per AP)
	//
	// SSA              total load 0.9833, max load 0.5833, assoc u1→a1 u2→a1 u3→a2 u4→a2 u5→a1
	// MLA-centralized  total load 0.5833, max load 0.5833, assoc u1→a1 u2→a1 u3→a1 u4→a1 u5→a1
	// MLA-distributed  total load 0.5833, max load 0.5833, assoc u1→a1 u2→a1 u3→a1 u4→a1 u5→a1
	// BLA-centralized  total load 0.8333, max load 0.5000, assoc u1→a1 u2→a1 u3→a1 u4→a2 u5→a2
	// BLA-distributed  total load 0.8333, max load 0.5000, assoc u1→a1 u2→a1 u3→a1 u4→a2 u5→a2
	// MLA-optimal      total load 0.5833, max load 0.5833, assoc u1→a1 u2→a1 u3→a1 u4→a1 u5→a1
	// BLA-optimal      total load 0.8333, max load 0.5000, assoc u1→a1 u2→a1 u3→a1 u4→a2 u5→a2
	//
	// The MLA optimum parks everyone on a1 (total 7/12); the BLA
	// optimum splits users across both APs (max load 1/2) — the two
	// objectives genuinely disagree, which is why the paper studies both.
}
