// Pay-per-view: the MNU revenue story from §3.2 — multicast streams
// are billed by viewing time, so under tight per-AP multicast budgets
// the operator wants as many concurrent viewers as possible. The
// example sweeps the budget and shows how many viewers SSA, the
// distributed rule, the centralized 8-approximation, and (on this
// small network) the exact ILP can admit.
//
// Run with:
//
//	go run ./examples/payperview
package main

import (
	"fmt"
	"log"

	"wlanmcast/internal/core"
	"wlanmcast/internal/geom"
	"wlanmcast/internal/optimal"
	"wlanmcast/internal/scenario"
)

func main() {
	budgets := []float64{0.02, 0.03, 0.042, 0.06, 0.09, 0.15}

	fmt.Println("pay-per-view: 20 APs, 60 viewers, 8 events, 1 Mbps streams")
	fmt.Printf("\n%-8s %10s %10s %10s %10s\n",
		"budget", "SSA", "MNU-dist", "MNU-cent", "MNU-opt")
	for _, budget := range budgets {
		n, err := scenario.GenerateNetwork(scenario.Params{
			Area:        geom.Square(600),
			NumAPs:      20,
			NumUsers:    60,
			NumSessions: 8,
			SessionRate: 1,
			Budget:      budget,
			Seed:        42,
		})
		if err != nil {
			log.Fatal(err)
		}
		row := []int{}
		for _, alg := range []core.Algorithm{
			&core.SSA{EnforceBudget: true},
			&core.Distributed{Objective: core.ObjMNU, EnforceBudget: true},
			&core.CentralizedMNU{},
			&optimal.MNU{MaxNodes: 100000},
		} {
			res, err := core.Evaluate(alg, n)
			if err != nil {
				log.Fatal(err)
			}
			if err := n.Validate(res.Assoc, true); err != nil {
				log.Fatalf("%s violated a budget: %v", alg.Name(), err)
			}
			row = append(row, res.Satisfied)
		}
		fmt.Printf("%-8.3f %10d %10d %10d %10d\n", budget, row[0], row[1], row[2], row[3])
	}

	fmt.Println("\nEvery admitted viewer is revenue. Association control admits more")
	fmt.Println("viewers from the same AP budgets by steering users of the same")
	fmt.Println("event toward shared transmissions at high PHY rates.")
}
