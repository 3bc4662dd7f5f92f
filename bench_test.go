package wlanmcast_test

// One benchmark per table/figure of the paper plus micro-benchmarks
// for the substrates and ablations called out in DESIGN.md. The
// figure benches run reduced configurations (few seeds, scaled sizes)
// so `go test -bench=.` finishes in minutes; cmd/experiments runs the
// full-fidelity sweeps.

import (
	"context"
	"testing"
	"time"

	"wlanmcast/internal/core"
	"wlanmcast/internal/experiments"
	"wlanmcast/internal/geom"
	"wlanmcast/internal/ilp"
	"wlanmcast/internal/lp"
	"wlanmcast/internal/mac"
	"wlanmcast/internal/netsim"
	"wlanmcast/internal/optimal"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/setcover"
	"wlanmcast/internal/wlan"
)

// benchCfg is the reduced experiment configuration for benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{Seeds: 1, SizeFactor: 0.25, ILPMaxNodes: 2000}
}

// --- figure benches (deliverable d) ---

func BenchmarkFig9a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9a(context.Background(), benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9b(context.Background(), benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9c(context.Background(), benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10a(context.Background(), benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10b(context.Background(), benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10c(context.Background(), benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(context.Background(), benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12a(context.Background(), benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12b(context.Background(), benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12c(context.Background(), benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- runner benches: sequential vs parallel sweep ---
// The pair measures the internal/runner worker pool on a fig9-class
// sweep. On a multi-core machine BenchmarkSweepParallel4 should run
// close to min(4, GOMAXPROCS)x faster than BenchmarkSweepSequential;
// on a single core they tie (see EXPERIMENTS.md).

func benchSweep(b *testing.B, workers int) {
	b.Helper()
	cfg := experiments.Config{Seeds: 8, SizeFactor: 0.25, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9a(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }

func BenchmarkSweepParallel4(b *testing.B) { benchSweep(b, 4) }

// BenchmarkRateLookup covers Table 1: the rate-vs-distance lookup on
// the paper's 802.11a table.
func BenchmarkRateLookup(b *testing.B) {
	tbl := radio.Table1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := float64(i%220) + 0.5
		tbl.RateFor(d)
	}
}

// --- algorithm benches at paper scale (200 APs, 400 users) ---

func paperNetwork(b *testing.B) *wlan.Network {
	b.Helper()
	p := scenario.PaperDefaults()
	p.Seed = 1
	n, err := scenario.GenerateNetwork(p)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

func benchAlgorithm(b *testing.B, alg core.Algorithm) {
	b.Helper()
	n := paperNetwork(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Run(n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSA(b *testing.B) { benchAlgorithm(b, &core.SSA{}) }

func BenchmarkCentralizedMLA(b *testing.B) { benchAlgorithm(b, &core.CentralizedMLA{}) }

func BenchmarkCentralizedBLA(b *testing.B) { benchAlgorithm(b, &core.CentralizedBLA{}) }

func BenchmarkCentralizedMNU(b *testing.B) { benchAlgorithm(b, &core.CentralizedMNU{}) }

func BenchmarkDistributedMLA(b *testing.B) {
	benchAlgorithm(b, &core.Distributed{Objective: core.ObjMLA})
}

func BenchmarkDistributedBLA(b *testing.B) {
	benchAlgorithm(b, &core.Distributed{Objective: core.ObjBLA})
}

func BenchmarkDistributedMNU(b *testing.B) {
	benchAlgorithm(b, &core.Distributed{Objective: core.ObjMNU, EnforceBudget: true})
}

// --- substrate micro-benches ---

func BenchmarkGreedyCover(b *testing.B) {
	n := paperNetwork(b)
	in, _ := core.BuildInstance(n, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := setcover.GreedyCover(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyMCG(b *testing.B) {
	n := paperNetwork(b)
	in, _ := core.BuildInstance(n, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := setcover.GreedyMCG(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrackerMove(b *testing.B) {
	n := paperNetwork(b)
	tr, err := wlan.NewTracker(n, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-associate everyone with their first neighbor.
	for u := 0; u < n.NumUsers(); u++ {
		if nb := n.NeighborAPs(u); len(nb) > 0 {
			if err := tr.AddHome(u, nb[0]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % n.NumUsers()
		nb := n.NeighborAPs(u)
		if len(nb) < 2 {
			continue
		}
		if err := tr.Move(u, nb[i%len(nb)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplex(b *testing.B) {
	// The Figure 7 set-cover LP relaxation.
	costs := []float64{1.0 / 4, 1.0 / 3, 1.0 / 6, 1.0 / 4, 1.0 / 5, 1.0 / 5, 1.0 / 3}
	cover := [][]int{{2}, {0, 2}, {1}, {1, 3, 4}, {2}, {3}, {3, 4}}
	p := &lp.Problem{NumVars: 7, Objective: costs}
	for e := 0; e < 5; e++ {
		row := make([]float64, 7)
		for s, elems := range cover {
			for _, x := range elems {
				if x == e {
					row[s] = 1
				}
			}
		}
		p.Cons = append(p.Cons, lp.Constraint{Coeffs: row, Rel: lp.GE, RHS: 1})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func fig12Network(b *testing.B, budget float64) *wlan.Network {
	b.Helper()
	p := scenario.Params{Area: geom.Square(600), NumAPs: 30, NumUsers: 30, NumSessions: 5, Seed: 1}
	if budget > 0 {
		p.Budget = budget
	}
	n, err := scenario.GenerateNetwork(p)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

func BenchmarkOptimalMLA(b *testing.B) {
	n := fig12Network(b, 0)
	alg := &optimal.MLA{MaxNodes: 100000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Run(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkILPBoxAblation measures the RelaxBoxes design choice from
// DESIGN.md: identical optima, very different node LP sizes.
func BenchmarkILPBoxAblation(b *testing.B) {
	n := fig12Network(b, 0)
	in, _ := core.BuildInstance(n, false)
	p := &lp.Problem{NumVars: len(in.Sets)}
	p.Objective = make([]float64, len(in.Sets))
	for j, s := range in.Sets {
		p.Objective[j] = s.Cost
	}
	rows := make(map[int][]int)
	for j, s := range in.Sets {
		for _, e := range s.Elems {
			rows[e] = append(rows[e], j)
		}
	}
	for e := 0; e < in.NumElements; e++ {
		js := rows[e]
		if len(js) == 0 {
			continue
		}
		row := make([]float64, len(in.Sets))
		for _, j := range js {
			row[j] = 1
		}
		p.Cons = append(p.Cons, lp.Constraint{Coeffs: row, Rel: lp.GE, RHS: 1})
	}
	for _, relax := range []bool{false, true} {
		name := "boxed"
		if relax {
			name = "relaxed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ilp.Solve(p, ilp.Options{RelaxBoxes: relax, MaxNodes: 100000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProtocolSim measures the message-level simulation, with
// and without the lock extension (another DESIGN.md ablation).
func BenchmarkProtocolSim(b *testing.B) {
	p := scenario.PaperDefaults()
	p.NumAPs = 50
	p.NumUsers = 100
	p.Seed = 3
	n, err := scenario.GenerateNetwork(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, locks := range []bool{false, true} {
		name := "jittered"
		if locks {
			name = "locks"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netsim.Run(netsim.Options{
					Network:   n,
					Objective: core.ObjBLA,
					Jitter:    300 * time.Millisecond,
					UseLocks:  locks,
					Seed:      int64(i),
					MaxTime:   5 * time.Minute,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMACSim measures the packet-level DCF simulator on a
// mid-size association (1 simulated second per iteration).
func BenchmarkMACSim(b *testing.B) {
	p := scenario.PaperDefaults()
	p.NumAPs = 50
	p.NumUsers = 150
	p.Seed = 11
	n, err := scenario.GenerateNetwork(p)
	if err != nil {
		b.Fatal(err)
	}
	assoc, err := (&core.CentralizedMLA{}).Run(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mac.Run(mac.Config{Network: n, Assoc: assoc, Duration: time.Second, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerAssign measures the adaptive-power-control extension.
func BenchmarkPowerAssign(b *testing.B) {
	n := paperNetwork(b)
	assoc, err := (&core.CentralizedMLA{}).Run(n)
	if err != nil {
		b.Fatal(err)
	}
	levels, err := radio.PowerLevels(8, 15)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AssignPowers(n, assoc, radio.Table1(), levels, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadModelAblation contrasts the paper's ratio load model
// with the airtime model (per-frame overhead) on MLA.
func BenchmarkLoadModelAblation(b *testing.B) {
	for _, airtime := range []bool{false, true} {
		name := "ratio"
		if airtime {
			name = "airtime"
		}
		b.Run(name, func(b *testing.B) {
			n := paperNetwork(b)
			if airtime {
				n.Load = wlan.AirtimeLoad{Model: radio.Default80211a(), PayloadBytes: 1472}
			}
			alg := &core.CentralizedMLA{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Run(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
