package mac_test

import (
	"fmt"
	"log"
	"time"

	"wlanmcast/internal/mac"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// ExampleRun streams one 1 Mbps session from one AP to two users at
// 24 Mbps and measures the airtime packet by packet. The measured
// fraction lands a little above the paper's ratio model (1/24 ≈
// 0.042) because real frames pay DIFS, backoff and preamble overhead.
func ExampleRun() {
	n, err := wlan.NewFromRates(
		[][]radio.Mbps{{24, 24}}, []int{0, 0},
		[]wlan.Session{{Rate: 1, Name: "news"}}, 1,
	)
	if err != nil {
		log.Fatal(err)
	}
	assoc := wlan.NewAssoc(2)
	assoc.Associate(0, 0)
	assoc.Associate(1, 0)

	res, err := mac.Run(mac.Config{
		Network:  n,
		Assoc:    assoc,
		Duration: 10 * time.Second,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ratio model %.3f, measured %.3f, delivery %.2f\n",
		1.0/24, res.MeasuredLoad(0), float64(res.DeliveredToUser[0])/float64(res.FramesToUser[0]))
	// Output:
	// ratio model 0.042, measured 0.053, delivery 1.00
}
