package experiments

import (
	"context"
	"fmt"

	"wlanmcast/internal/core"
	"wlanmcast/internal/engine"
	"wlanmcast/internal/fault"
	"wlanmcast/internal/metrics"
	"wlanmcast/internal/scenario"
)

// ExtFault measures self-healing under AP failures: a seeded fault
// schedule (crashes, correlated outages, recoveries, flaps) runs
// against the online engine for each objective, and against the SSA
// baseline that re-runs strongest-signal association after every
// availability change. x sweeps the expected number of AP failures
// over the horizon; y reports the repair cost per failure — how many
// users re-decide, how many associations change — and the residual
// max AP load once the schedule has played out. The engine figures
// use incremental repair; SSA has no repair logic at all, so its
// handoff count is the signaling price of operating without one.
func ExtFault(ctx context.Context, cfg Config) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig := &metrics.Figure{ID: "ext-fault", Title: "Self-healing repair cost vs AP failure rate", XLabel: "expected AP failures", YLabel: "repair work per failure / residual max load"}
	fig.X = []float64{1, 2, 4, 8}
	nAPs := cfg.scale(30)
	users := cfg.scale(90)
	const (
		sessions = 3
		horizon  = 100.0
	)
	return runSeeds(ctx, cfg, fig, func(ctx context.Context, point, seed int) ([]Value, error) {
		p := scenario.PaperDefaults()
		p.NumAPs = nAPs
		p.NumUsers = users
		p.NumSessions = sessions
		p.Seed = int64(seed)
		sched, err := fault.Gen(fault.Params{
			Seed:    int64(seed),
			APs:     nAPs,
			Horizon: horizon,
			// Aggregate crash rate APs/MTBF sets the expected failure
			// count for the horizon to (about) x.
			MTBF:      float64(nAPs) * horizon / fig.X[point],
			MTTR:      15,
			GroupSize: 2,
			FlapProb:  0.1,
		})
		if err != nil {
			return nil, err
		}
		// Small scaled-down scenarios can draw a crash-free schedule;
		// dividing by at least one keeps the per-fault metrics defined
		// (and zero, correctly) for them.
		faults := float64(sched.Downs())
		if faults < 1 {
			faults = 1
		}
		trace := engine.MergeFaults(nil, sched)
		var out []Value
		for _, o := range []struct {
			label string
			ecfg  engine.Config
		}{
			{"MNU", engine.Config{Objective: core.ObjMNU, EnforceBudget: true}},
			{"BLA", engine.Config{Objective: core.ObjBLA}},
			{"MLA", engine.Config{Objective: core.ObjMLA}},
		} {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			n, err := scenario.GenerateNetwork(p)
			if err != nil {
				return nil, err
			}
			o.ecfg.Mode = engine.ModeIncremental
			eng, err := engine.New(n, o.ecfg)
			if err != nil {
				return nil, err
			}
			br, err := eng.ApplyBatch(trace)
			if err != nil {
				ev := trace[br.Applied]
				return nil, fmt.Errorf("%s: event %d (%s user %d): %w", o.label, br.Applied, ev.Kind, ev.User, err)
			}
			out = append(out,
				Value{o.label + "/redecisions-per-fault", float64(br.Redecisions) / faults},
				Value{o.label + "/handoffs-per-fault", float64(br.Moves) / faults},
				Value{o.label + "/max-load", eng.MaxLoad()},
			)
		}
		ssa, err := ssaFaultBaseline(p, sched, faults)
		if err != nil {
			return nil, err
		}
		return append(out, ssa...), nil
	})
}

// ssaFaultBaseline plays the schedule against an operator who re-runs
// SSA from scratch after every availability change, counting every
// association difference between consecutive solutions as a handoff.
func ssaFaultBaseline(p scenario.Params, sched fault.Schedule, faults float64) ([]Value, error) {
	n, err := scenario.GenerateNetwork(p)
	if err != nil {
		return nil, err
	}
	alg := &core.SSA{}
	prev, err := alg.Run(n)
	if err != nil {
		return nil, err
	}
	handoffs := 0
	for _, act := range sched {
		var err error
		if act.Down {
			err = n.DisableAP(act.AP)
		} else {
			err = n.EnableAP(act.AP)
		}
		if err != nil {
			return nil, err
		}
		cur, err := alg.Run(n)
		if err != nil {
			return nil, err
		}
		for u := 0; u < n.NumUsers(); u++ {
			if cur.APOf(u) != prev.APOf(u) {
				handoffs++
			}
		}
		prev = cur
	}
	return []Value{
		{"SSA/handoffs-per-fault", float64(handoffs) / faults},
		{"SSA/max-load", n.MaxLoad(prev)},
	}, nil
}
