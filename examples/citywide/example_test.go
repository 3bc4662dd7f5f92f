package main

// Example runs the example and pins what it prints.
func Example() {
	main()
	// Output:
	// city district: 400 APs (grid), 1200 users, 6 channels
	//
	// SSA baseline:      total load 26.25, max load 0.435
	//
	// distributed BLA, jittered timers:
	//   converged, last move at 5.019s
	//   total load 25.58 (2.5% below SSA), max load 0.250 (42.6% below SSA)
	//   signaling: 149558 frames total (1353 moves, 7805 decisions)
	//   per user: 124.6 frames
	//
	// distributed BLA, locks extension:
	//   converged, last move at 12.332s
	//   total load 25.54 (2.7% below SSA), max load 0.250 (42.6% below SSA)
	//   signaling: 675165 frames total (1366 moves, 11980 decisions, 3120 lock denials)
	//   per user: 562.6 frames
	//
	// Each user converges from purely local queries — no controller
	// tracks 1200 subscribers, which is the point of the distributed rules.
}
