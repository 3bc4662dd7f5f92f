package core_test

import (
	"fmt"
	"log"

	"wlanmcast/internal/core"
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

// ExampleCentralizedMLA reproduces the paper's §6.1 walk-through: the
// greedy set cover puts every user on AP a1 for a total load of 7/12.
func ExampleCentralizedMLA() {
	res, err := core.Evaluate(&core.CentralizedMLA{}, figure1())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total load %.4f, satisfied %d/5\n", res.TotalLoad, res.Satisfied)
	// Output:
	// total load 0.5833, satisfied 5/5
}

// ExampleDistributed shows the distributed BLA rule converging to the
// optimum on the paper's example (§5.2 walk-through).
func ExampleDistributed() {
	d := &core.Distributed{Objective: core.ObjBLA}
	res, err := d.RunDetailed(figure1())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged=%v rounds=%d max load %.2f\n",
		res.Converged, res.Rounds, figure1().MaxLoad(res.Assoc))
	// Output:
	// converged=true rounds=2 max load 0.50
}

// ExampleDistributed_runSimultaneous demonstrates the Figure 4
// livelock: with simultaneous decisions users u2 and u3 swap APs
// forever with period 2.
func ExampleDistributed_runSimultaneous() {
	rates := [][]radio.Mbps{
		{5, 4, 4, 0},
		{0, 4, 4, 5},
	}
	n, err := wlan.NewFromRates(rates, []int{0, 0, 0, 0}, []wlan.Session{{Rate: 1}}, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	start := wlan.NewAssoc(4)
	start.Associate(0, 0)
	start.Associate(1, 0)
	start.Associate(2, 1)
	start.Associate(3, 1)
	d := &core.Distributed{Objective: core.ObjMNU, EnforceBudget: true}
	res, err := d.RunSimultaneous(n, start, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oscillating=%v period=%d\n", res.Oscillating, res.Period)
	// Output:
	// oscillating=true period=2
}
