package wlan_test

import (
	"fmt"
	"log"

	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// ExampleNewFromRates builds the paper's Figure 1 network and
// evaluates the MLA-optimal association described in §3.2: all users
// on AP a1 for a total load of 1/3 + 1/4 = 7/12.
func ExampleNewFromRates() {
	rates := [][]radio.Mbps{
		{3, 6, 4, 4, 4}, // a1 → u1..u5
		{0, 0, 5, 5, 3}, // a2 → u1..u5
	}
	sessions := []wlan.Session{{Rate: 1, Name: "s1"}, {Rate: 1, Name: "s2"}}
	n, err := wlan.NewFromRates(rates, []int{0, 1, 0, 1, 1}, sessions, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	assoc := wlan.NewAssoc(n.NumUsers())
	for u := 0; u < n.NumUsers(); u++ {
		assoc.Associate(u, 0)
	}
	fmt.Printf("a1 load = %.4f (7/12)\n", n.APLoad(assoc, 0))
	fmt.Printf("a2 load = %.4f\n", n.APLoad(assoc, 1))
	// Output:
	// a1 load = 0.5833 (7/12)
	// a2 load = 0.0000
}

// ExampleTracker shows incremental what-if evaluation, the primitive
// the distributed algorithms are built on.
func ExampleTracker() {
	rates := [][]radio.Mbps{
		{6, 12},
		{12, 6},
	}
	n, err := wlan.NewFromRates(rates, []int{0, 0}, []wlan.Session{{Rate: 1}}, 1)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := wlan.NewTracker(n, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.AddHome(0, 0); err != nil { // user 0 joins AP 0 at 6 Mbps
		log.Fatal(err)
	}
	load, _, _ := tr.LoadIfJoin(1, 0) // what if user 1 joined AP 0 too?
	fmt.Printf("AP0 now %.4f, would be %.4f\n", tr.APLoad(0), load)
	// Output:
	// AP0 now 0.1667, would be 0.1667
}
