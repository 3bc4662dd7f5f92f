// Package wlanmcast reproduces "Optimizing Multicast Performance in
// Large-Scale WLANs" (Chen, Lee, Sinha — ICDCS 2007): association
// control for multicast streaming in 802.11 WLANs under three
// objectives — maximize satisfied users (MNU), balance AP load (BLA),
// and minimize total AP load (MLA) — each with centralized
// approximation algorithms, distributed local rules, exact ILP
// solvers, and the strongest-signal baseline the paper compares
// against.
//
// Layout:
//
//	internal/core        the association-control algorithms (the paper's contribution)
//	internal/wlan        network model: APs, users, sessions, multicast load
//	internal/radio       802.11a rate-distance table, channels, airtime
//	internal/setcover    greedy set cover, MCG, SCG
//	internal/optimal     exact ILP optima for Figure 12
//	internal/lp,ilp      simplex + branch-and-bound under internal/optimal
//	internal/des,netsim  event-driven distributed-protocol simulation
//	internal/scenario    workload generation and scenario JSON
//	internal/metrics     avg/min/max aggregation and table formatting
//	internal/experiments one runner per paper figure
//	cmd/...              experiments (figures, sim, gen, netsim), assocd, loadgen
//	examples/...         quickstart, campustv, payperview, citywide
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured results; bench_test.go regenerates each figure as
// a Go benchmark.
package wlanmcast
