package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"wlanmcast/internal/core"
	"wlanmcast/internal/wlan"
)

// solveAlg is one algorithm of a round and the per-layer metric its
// time is reported as.
type solveAlg struct {
	alg    core.Algorithm
	metric string
	budget bool // the result must also respect the per-AP budgets
}

// solveAlgs is the paper's own job: the strongest-signal baseline and
// the centralized and distributed algorithm of each objective.
func solveAlgs() []solveAlg {
	return []solveAlg{
		{&core.SSA{}, "core.ssa_s", false},
		{&core.CentralizedMNU{}, "core.mnu_centralized_s", true},
		{&core.CentralizedBLA{}, "core.bla_centralized_s", false},
		{&core.CentralizedMLA{}, "core.mla_centralized_s", false},
		{&core.Distributed{Objective: core.ObjMNU, EnforceBudget: true}, "core.mnu_distributed_s", true},
		{&core.Distributed{Objective: core.ObjBLA}, "core.bla_distributed_s", false},
		{&core.Distributed{Objective: core.ObjMLA}, "core.mla_distributed_s", false},
	}
}

// runSolve is the batch workload: one large paper-density network,
// every algorithm once per round, rounds until the time is up. All of
// it happens in this process; no engine, journal or daemon runs.
func runSolve(ctx context.Context, r *runner) error {
	aps, users := r.pick(2000, 100), r.pick(4000, 200)
	in := r.tr.begin("input.generate")
	spec, err := paperSpec(r.seed, aps, users)
	r.tr.end(in)
	if err != nil {
		return err
	}
	r.counts["aps"], r.counts["users"] = aps, users

	// Set-up is building the network from the generated positions.
	var n *wlan.Network
	var setups []float64
	for i := 0; i < r.pick(15, 1); i++ {
		d, err := r.timed("setup", func() (err error) {
			n, err = spec.Network()
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}

	algs := solveAlgs()
	perAlg := make([][]float64, len(algs))
	// One round is one slice (see stats.go).
	var rates, p50s, p90s []float64
	samples := 0
	var mallocs uint64
	var quality struct{ ssaTotal, mlaTotal, blaMax, mnuSat float64 }
	measure := r.tr.begin("measure")
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for len(rates) == 0 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		var round time.Duration
		runMS := make([]float64, 0, len(algs))
		for i, a := range algs {
			var assoc *wlan.Assoc
			d, err := r.timed(a.metric, func() (err error) {
				assoc, err = a.alg.Run(n)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", a.alg.Name(), err)
			}
			round += d
			perAlg[i] = append(perAlg[i], d.Seconds())
			runMS = append(runMS, d.Seconds()*1e3)
			r.attempted++
			if err := n.Validate(assoc, a.budget); err != nil {
				r.logf("%s produced an invalid association: %v", a.alg.Name(), err)
				r.failed++
			}
			switch a.metric {
			case "core.ssa_s":
				quality.ssaTotal = n.TotalLoad(assoc)
			case "core.mla_centralized_s":
				quality.mlaTotal = n.TotalLoad(assoc)
			case "core.bla_centralized_s":
				quality.blaMax = n.MaxLoad(assoc)
			case "core.mnu_centralized_s":
				quality.mnuSat = float64(assoc.SatisfiedCount())
			}
		}
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - before
		// An event here is one user's association computed by one algorithm.
		rates = append(rates, float64(users*len(algs))/round.Seconds())
		p50s = append(p50s, quantile(runMS, 0.50))
		p90s = append(p90s, quantile(runMS, 0.90))
		samples += len(runMS)
	}
	r.tr.end(measure)
	r.verified = true
	r.counts["slices"] = len(rates)
	r.counts["latency_samples"] = samples

	// What the generated positions and the network built from them
	// hold once the last round's garbage is gone.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(spec)
	runtime.KeepAlive(n)
	r.slices = map[string][]float64{"setup_s": setups, "events_per_s": rates, "latency_ms_p50": p50s, "latency_ms_p90": p90s}
	r.e2e["setup_s"] = median(setups)
	r.e2e["events_per_s"] = undisturbedRate(rates)
	r.e2e["latency_ms_p50"] = undisturbedLatency(p50s)
	r.e2e["latency_ms_p90"] = undisturbedLatency(p90s)
	r.e2e["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	r.e2e["load_vs_ssa"] = quality.mlaTotal / quality.ssaTotal
	r.e2e["satisfied_fraction"] = quality.mnuSat / float64(users)
	if !r.traced() {
		return nil
	}

	for i, a := range algs {
		r.layer[a.metric] = undisturbedLatency(perAlg[i])
	}
	r.layer["core.allocs_per_solve"] = float64(mallocs)
	r.layer["quality.max_load"] = quality.blaMax
	r.layer["client.latency_samples"] = float64(samples)
	r.layer["client.latency_ms_p99"] = r.e2e["latency_ms_p90"] // of seven runs, both are the slowest
	r.layer["client.events"] = float64(users * samples)
	r.layer["client.events_per_s_overall"] = median(rates)
	r.layer["client.cpu_s"] = selfCPUSeconds()
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	r.layer["proc.peak_rss_mb"] = rss
	lad := r.tr.begin("ladder")
	if err := r.setupRungs(spec); err != nil {
		return err
	}
	if err := r.innerRungs(spec); err != nil {
		return err
	}
	r.tr.end(lad)
	r.zero(engineRungs...)
	r.zero(multiRungs...)
	r.zero(snapshotRungs...)
	r.zero(walRungs...)
	r.zero(wireRungs...)
	r.zero(daemonRungs...)
	r.zero("engine.init_s", "client.gen_late_ms_p99", "trace.overhead_fraction", "verify.replay_s")
	return nil
}
