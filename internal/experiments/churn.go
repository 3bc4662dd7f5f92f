package experiments

import (
	"context"
	"fmt"

	"wlanmcast/internal/core"
	"wlanmcast/internal/engine"
	"wlanmcast/internal/metrics"
	"wlanmcast/internal/scenario"
)

// ExtChurn exercises the online association engine: a seeded Poisson
// churn trace (joins, leaves, moves, demand changes) is applied to
// the same starting scenario twice — once with incremental repair
// (only affected users re-decide) and once with the full-recompute
// baseline (the batch sequential process reruns after every event).
// x sweeps the trace length; y reports the resulting association
// quality (total and max load) and the work per event (re-decisions,
// the deterministic throughput proxy — wall-clock events/sec lives in
// BenchmarkEngineIncremental/BenchmarkEngineFullRecompute, since
// timing has no place in a byte-deterministic figure).
func ExtChurn(ctx context.Context, cfg Config) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig := &metrics.Figure{ID: "ext-churn", Title: "Incremental vs full-recompute churn handling", XLabel: "churn events", YLabel: "load / re-decisions per event"}
	fig.X = []float64{50, 100, 200, 400}
	nAPs := cfg.scale(50)
	capacity := cfg.scale(150)
	initial := capacity * 2 / 3
	if initial < 1 {
		initial = 1
	}
	const sessions = 4
	return runSeeds(ctx, cfg, fig, func(ctx context.Context, point, seed int) ([]Value, error) {
		p := scenario.PaperDefaults()
		p.NumAPs = nAPs
		p.NumUsers = capacity
		p.NumSessions = sessions
		p.Seed = int64(seed)
		trace, err := engine.GenTrace(engine.TraceParams{
			Seed:          int64(seed),
			Events:        int(fig.X[point]),
			Area:          p.Area,
			Users:         capacity,
			InitialActive: initial,
			Sessions:      sessions,
		})
		if err != nil {
			return nil, err
		}
		var out []Value
		for _, m := range []struct {
			mode  engine.Mode
			label string
		}{
			{engine.ModeIncremental, "incremental"},
			{engine.ModeFullRecompute, "full-recompute"},
		} {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			n, err := scenario.GenerateNetwork(p)
			if err != nil {
				return nil, err
			}
			eng, err := engine.New(n, engine.Config{
				Objective:   core.ObjMLA,
				Mode:        m.mode,
				ActiveUsers: initial,
			})
			if err != nil {
				return nil, err
			}
			br, err := eng.ApplyBatch(trace)
			if err != nil {
				ev := trace[br.Applied]
				return nil, fmt.Errorf("%s: event %d (%s user %d): %w", m.label, br.Applied, ev.Kind, ev.User, err)
			}
			out = append(out,
				Value{m.label + "/total-load", eng.TotalLoad()},
				Value{m.label + "/max-load", eng.MaxLoad()},
				Value{m.label + "/redecisions-per-event", float64(br.Redecisions) / float64(len(trace))},
			)
		}
		return out, nil
	})
}
