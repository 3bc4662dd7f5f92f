package experiments

import (
	"context"
	"fmt"

	"math"

	"wlanmcast/internal/core"
	"wlanmcast/internal/engine"
	"wlanmcast/internal/fault"
	"wlanmcast/internal/geom"
	"wlanmcast/internal/metrics"
	"wlanmcast/internal/scenario"
)

// ExtMultihome measures what multi-connectivity association (ISSUE
// 10; arXiv 2305.15252's user→AP-set model) buys during AP outages.
// The same seeded fault schedules as ext-fault run against two
// engines over a deliberately budget-tight scenario: the single-AP
// engine (MaxHomes off) and the MaxHomes=2 engine whose grandfathered
// secondary homes keep users served when budgets block single-AP
// rehoming. x sweeps the expected AP failure count over the horizon;
// y reports the satisfied-user count averaged over the schedule's
// post-fault states (the "during outages" view — end-of-horizon
// states are mostly recovered and hide the difference), the surviving
// secondary homes, and the residual max AP load — the multi series
// includes secondary-home contributions, which is the admission price
// of the redundancy.
func ExtMultihome(ctx context.Context, cfg Config) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig := &metrics.Figure{ID: "ext-multihome", Title: "Multi-connectivity: satisfied users under AP outages", XLabel: "expected AP failures", YLabel: "mean satisfied users / residual max load"}
	fig.X = []float64{1, 2, 4, 8}
	nAPs := cfg.scale(30)
	users := cfg.scale(90)
	const (
		sessions = 3
		horizon  = 100.0
		// budget and demand tuned so a failed AP's users cannot all
		// rehome (their load no longer fits elsewhere), yet the fill
		// pass still admits secondaries before the fault — joining a
		// session an AP already carries is nearly free under the
		// multicast load model, which is exactly why standby homes are
		// cheap to hold and valuable to have. This is the regime where
		// a secondary home is the difference between degraded service
		// and none.
		budget      = 0.5
		sessionRate = 2
		// Hold AP density fixed at 20 APs per km² as the size factor
		// scales the counts: the default 1.2 km² area leaves smoke-sized
		// deployments with no overlapping coverage, and without overlap
		// there are no candidate secondary homes to measure.
		areaPerAP = 50_000.0
	)
	width := math.Sqrt(1.2 * areaPerAP * float64(nAPs))
	return runSeeds(ctx, cfg, fig, func(ctx context.Context, point, seed int) ([]Value, error) {
		p := scenario.PaperDefaults()
		p.Area = geom.Rect{Width: width, Height: width / 1.2}
		p.NumAPs = nAPs
		p.NumUsers = users
		p.NumSessions = sessions
		p.SessionRate = sessionRate
		p.Seed = int64(seed)
		p.Budget = budget
		sched, err := fault.Gen(fault.Params{
			Seed:      int64(seed),
			APs:       nAPs,
			Horizon:   horizon,
			MTBF:      float64(nAPs) * horizon / fig.X[point],
			MTTR:      15,
			GroupSize: 2,
			FlapProb:  0.1,
		})
		if err != nil {
			return nil, err
		}
		// Move and demand churn between secondary admission and the
		// faults is what makes grandfathered homes earn their keep: a
		// standby admitted under yesterday's loads survives (by design,
		// no budget re-check) after churn has eaten the headroom that
		// a fresh single-AP rehome would need. All users stay active;
		// the churn timestamps are rescaled onto the fault horizon so
		// MergeFaults interleaves the two streams.
		churn, err := engine.GenTrace(engine.TraceParams{
			Seed:          int64(seed) + 1,
			Events:        8 * users,
			Area:          p.Area,
			Users:         users,
			InitialActive: users,
			Sessions:      sessions,
			MoveRate:      1,
			DemandRate:    1,
		})
		if err != nil {
			return nil, err
		}
		if last := churn[len(churn)-1].At; last > 0 {
			for i := range churn {
				churn[i].At *= horizon / last
			}
		}
		trace := engine.MergeFaults(churn, sched)
		var out []Value
		for _, o := range []struct {
			label    string
			maxHomes int
		}{
			{"single", 0},
			{"multi2", 2},
		} {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			n, err := scenario.GenerateNetwork(p)
			if err != nil {
				return nil, err
			}
			eng, err := engine.New(n, engine.Config{
				Objective:     core.ObjMLA,
				EnforceBudget: true,
				Mode:          engine.ModeIncremental,
				ActiveUsers:   users,
				MaxHomes:      o.maxHomes,
			})
			if err != nil {
				return nil, err
			}
			// Sample after every fault event: the outage-time service
			// level is the quantity of interest, and it is exactly where
			// the two engines differ.
			satisfied, secondaries := 0.0, 0.0
			for _, ev := range trace {
				if _, err := eng.Apply(ev); err != nil {
					return nil, fmt.Errorf("%s: %w", o.label, err)
				}
				ma := eng.MultiSnapshot()
				satisfied += float64(ma.SatisfiedCount())
				secondaries += float64(ma.SecondaryCount())
			}
			samples := float64(len(trace))
			if samples < 1 {
				samples = 1
			}
			out = append(out,
				Value{o.label + "/satisfied-mean", satisfied / samples},
				Value{o.label + "/max-load", eng.Network().MaxLoadMulti(eng.MultiSnapshot())},
			)
			if o.maxHomes > 1 {
				out = append(out, Value{o.label + "/secondary-homes-mean", secondaries / samples})
			}
		}
		return out, nil
	})
}
