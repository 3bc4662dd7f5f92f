package optimal_test

import (
	"fmt"
	"log"

	"wlanmcast/internal/core"
	"wlanmcast/internal/optimal"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// figure1 is the paper's running example network.
func figure1() *wlan.Network {
	rates := [][]radio.Mbps{
		{3, 6, 4, 4, 4},
		{0, 0, 5, 5, 3},
	}
	sessions := []wlan.Session{{Rate: 1, Name: "s1"}, {Rate: 1, Name: "s2"}}
	n, err := wlan.NewFromRates(rates, []int{0, 1, 0, 1, 1}, sessions, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	return n
}

// ExampleBLA computes the paper's §3.2 BLA optimum exactly:
// max AP load 1/2 (u1,u2,u3 on a1; u4,u5 on a2).
func ExampleBLA() {
	res, err := core.Evaluate(&optimal.BLA{}, figure1())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max load %.2f\n", res.MaxLoad)
	// Output:
	// max load 0.50
}
