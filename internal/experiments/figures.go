package experiments

import (
	"context"

	"wlanmcast/internal/core"
	"wlanmcast/internal/metrics"
	"wlanmcast/internal/optimal"
	"wlanmcast/internal/scenario"
)

// Sweep ranges. The paper plots users 50..400, APs 25..200 and
// sessions 1..10; the exact tick sets are read off its axes.
var (
	userSweep    = []float64{50, 100, 150, 200, 250, 300, 350, 400}
	apSweep      = []float64{25, 50, 75, 100, 125, 150, 175, 200}
	sessionSweep = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	budgetSweep  = []float64{0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.12, 0.16, 0.20}
	fig12Users   = []float64{10, 20, 30, 40, 50}
)

// Fig9a reproduces Figure 9(a): total AP load vs number of users with
// 200 APs and 5 sessions.
func Fig9a(ctx context.Context, cfg Config) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig := &metrics.Figure{ID: "fig9a", Title: "Total AP load vs users", XLabel: "users", YLabel: "total load"}
	return sweep(ctx, cfg, fig, userSweep, func(x float64, seed int64) scenario.Params {
		p := scenario.PaperDefaults()
		p.NumAPs = cfg.scale(200)
		p.NumUsers = cfg.scale(int(x))
		p.Seed = seed
		return p
	}, mlaAlgs, totalLoad)
}

// Fig9b reproduces Figure 9(b): total AP load vs number of APs with
// 100 users.
func Fig9b(ctx context.Context, cfg Config) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig := &metrics.Figure{ID: "fig9b", Title: "Total AP load vs APs", XLabel: "APs", YLabel: "total load"}
	return sweep(ctx, cfg, fig, apSweep, func(x float64, seed int64) scenario.Params {
		p := scenario.PaperDefaults()
		p.NumAPs = cfg.scale(int(x))
		p.NumUsers = cfg.scale(100)
		p.Seed = seed
		return p
	}, mlaAlgs, totalLoad)
}

// Fig9c reproduces Figure 9(c): total AP load vs number of sessions
// with 200 APs and 200 users.
func Fig9c(ctx context.Context, cfg Config) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig := &metrics.Figure{ID: "fig9c", Title: "Total AP load vs sessions", XLabel: "sessions", YLabel: "total load"}
	return sweep(ctx, cfg, fig, sessionSweep, func(x float64, seed int64) scenario.Params {
		p := scenario.PaperDefaults()
		p.NumAPs = cfg.scale(200)
		p.NumUsers = cfg.scale(200)
		p.NumSessions = int(x)
		p.Seed = seed
		return p
	}, mlaAlgs, totalLoad)
}

// Fig10a reproduces Figure 10(a): max AP load vs number of users.
func Fig10a(ctx context.Context, cfg Config) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig := &metrics.Figure{ID: "fig10a", Title: "Max AP load vs users", XLabel: "users", YLabel: "max load"}
	return sweep(ctx, cfg, fig, userSweep, func(x float64, seed int64) scenario.Params {
		p := scenario.PaperDefaults()
		p.NumAPs = cfg.scale(200)
		p.NumUsers = cfg.scale(int(x))
		p.Seed = seed
		return p
	}, blaAlgs, maxLoad)
}

// Fig10b reproduces Figure 10(b): max AP load vs number of APs.
func Fig10b(ctx context.Context, cfg Config) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig := &metrics.Figure{ID: "fig10b", Title: "Max AP load vs APs", XLabel: "APs", YLabel: "max load"}
	return sweep(ctx, cfg, fig, apSweep, func(x float64, seed int64) scenario.Params {
		p := scenario.PaperDefaults()
		p.NumAPs = cfg.scale(int(x))
		p.NumUsers = cfg.scale(100)
		p.Seed = seed
		return p
	}, blaAlgs, maxLoad)
}

// Fig10c reproduces Figure 10(c): max AP load vs number of sessions.
func Fig10c(ctx context.Context, cfg Config) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig := &metrics.Figure{ID: "fig10c", Title: "Max AP load vs sessions", XLabel: "sessions", YLabel: "max load"}
	return sweep(ctx, cfg, fig, sessionSweep, func(x float64, seed int64) scenario.Params {
		p := scenario.PaperDefaults()
		p.NumAPs = cfg.scale(200)
		p.NumUsers = cfg.scale(200)
		p.NumSessions = int(x)
		p.Seed = seed
		return p
	}, blaAlgs, maxLoad)
}

// Fig11 reproduces Figure 11: satisfied users vs the per-AP multicast
// load budget, with 400 users, 100 APs and 18 sessions.
func Fig11(ctx context.Context, cfg Config) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig := &metrics.Figure{ID: "fig11", Title: "Satisfied users vs load budget", XLabel: "budget", YLabel: "satisfied users"}
	return sweep(ctx, cfg, fig, budgetSweep, func(x float64, seed int64) scenario.Params {
		p := scenario.PaperDefaults()
		p.NumAPs = cfg.scale(100)
		p.NumUsers = cfg.scale(400)
		p.NumSessions = 18
		p.Budget = x
		p.Seed = seed
		return p
	}, mnuAlgs, satisfied)
}

// fig12Params is the paper's Figure 12 small-network setup: 30 APs
// and up to 50 users in a 600 m x 600 m area.
func fig12Params(cfg Config, users float64, seed int64, budget float64) scenario.Params {
	p := scenario.PaperDefaults()
	p.Area = fig12Area
	p.NumAPs = cfg.scale(30)
	p.NumUsers = cfg.scale(int(users))
	p.NumSessions = 5
	p.Seed = seed
	if budget > 0 {
		p.Budget = budget
	}
	return p
}

// Fig12a reproduces Figure 12(a): total AP load vs users including
// the ILP optimum.
func Fig12a(ctx context.Context, cfg Config) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig := &metrics.Figure{ID: "fig12a", Title: "Total AP load vs users (vs optimal)", XLabel: "users", YLabel: "total load"}
	algs := func() []core.Algorithm {
		return append(mlaAlgs(), &optimal.MLA{MaxNodes: cfg.ILPMaxNodes})
	}
	return sweep(ctx, cfg, fig, fig12Users, func(x float64, seed int64) scenario.Params {
		return fig12Params(cfg, x, seed, 0)
	}, algs, totalLoad)
}

// Fig12b reproduces Figure 12(b): max AP load vs users including the
// ILP optimum.
func Fig12b(ctx context.Context, cfg Config) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig := &metrics.Figure{ID: "fig12b", Title: "Max AP load vs users (vs optimal)", XLabel: "users", YLabel: "max load"}
	algs := func() []core.Algorithm {
		return append(blaAlgs(), &optimal.BLA{MaxNodes: cfg.ILPMaxNodes})
	}
	return sweep(ctx, cfg, fig, fig12Users, func(x float64, seed int64) scenario.Params {
		return fig12Params(cfg, x, seed, 0)
	}, algs, maxLoad)
}

// Fig12c reproduces Figure 12(c): unsatisfied users vs users with a
// 0.042 budget, including the ILP optimum. Streams run at 0.5 Mbps
// here: the paper's 0.042 budget is exactly the airtime of one
// 0.5 Mbps stream at the 12 Mbps PHY rate (0.5/12 = 0.0417), which
// reproduces the near-full-coverability regime its Figure 12(c)
// reports (see DESIGN.md on unstated parameters).
func Fig12c(ctx context.Context, cfg Config) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig := &metrics.Figure{ID: "fig12c", Title: "Unsatisfied users vs users (vs optimal)", XLabel: "users", YLabel: "unsatisfied users"}
	algs := func() []core.Algorithm {
		return append(mnuAlgs(), &optimal.MNU{MaxNodes: cfg.ILPMaxNodes})
	}
	return sweep(ctx, cfg, fig, fig12Users, func(x float64, seed int64) scenario.Params {
		p := fig12Params(cfg, x, seed, 0.042)
		p.SessionRate = 0.5
		return p
	}, algs, unsatisfied)
}
