// Quickstart: build the paper's Figure 1 network by hand, run all
// three objectives (centralized, distributed, optimal) and the SSA
// baseline, and print what each decides.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"wlanmcast/internal/core"
	"wlanmcast/internal/optimal"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

func main() {
	// The WLAN of the paper's Figure 1: two APs, five users, two
	// multicast sessions. rates[a][u] is the max PHY rate of the
	// a→u link in Mbps; 0 means out of range.
	rates := [][]radio.Mbps{
		{3, 6, 4, 4, 4}, // AP a1
		{0, 0, 5, 5, 3}, // AP a2
	}
	sessions := []wlan.Session{
		{Rate: 1, Name: "news-channel"},
		{Rate: 1, Name: "sports-channel"},
	}
	userSession := []int{0, 1, 0, 1, 1} // u1,u3 watch news; u2,u4,u5 sports
	n, err := wlan.NewFromRates(rates, userSession, sessions, 1.0)
	if err != nil {
		log.Fatal(err)
	}

	algorithms := []core.Algorithm{
		&core.SSA{},
		&core.CentralizedMLA{},
		&core.Distributed{Objective: core.ObjMLA},
		&core.CentralizedBLA{},
		&core.Distributed{Objective: core.ObjBLA},
		&optimal.MLA{},
		&optimal.BLA{},
	}

	fmt.Printf("%d APs, %d users, %d sessions (budget %.1f per AP)\n\n",
		n.NumAPs(), n.NumUsers(), n.NumSessions(), n.APs[0].Budget)
	for _, alg := range algorithms {
		res, err := core.Evaluate(alg, n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s total load %.4f, max load %.4f, assoc %s\n",
			res.Algorithm, res.TotalLoad, res.MaxLoad, assocString(res.Assoc))
	}

	fmt.Println("\nThe MLA optimum parks everyone on a1 (total 7/12); the BLA")
	fmt.Println("optimum splits users across both APs (max load 1/2) — the two")
	fmt.Println("objectives genuinely disagree, which is why the paper studies both.")
}

// assocString renders an association as u1→a1 style pairs.
func assocString(a *wlan.Assoc) string {
	out := ""
	for u := 0; u < a.NumUsers(); u++ {
		if u > 0 {
			out += " "
		}
		if ap := a.APOf(u); ap == wlan.Unassociated {
			out += fmt.Sprintf("u%d→–", u+1)
		} else {
			out += fmt.Sprintf("u%d→a%d", u+1, ap+1)
		}
	}
	return out
}
