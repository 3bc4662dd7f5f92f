// Package experiments regenerates every table and figure of the
// paper's evaluation (§7). Each experiment sweeps one parameter over
// a batch of seeded random scenarios, runs the paper's algorithms and
// the SSA baseline, and reports avg/min/max series exactly as the
// paper's error-bar plots do. See DESIGN.md for the experiment index
// and EXPERIMENTS.md for measured-vs-paper results.
//
// Every sweep routes through internal/runner: the seed evaluations of
// all data points fan out over a bounded worker pool (Config.Workers)
// and are collected deterministically by (point, seed) index, so the
// produced figures are byte-identical for every worker count.
package experiments

import (
	"context"
	"fmt"
	"time"

	"wlanmcast/internal/core"
	"wlanmcast/internal/geom"
	"wlanmcast/internal/metrics"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/runner"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/wlan"
)

// Config tunes how faithfully an experiment reproduces the paper's
// setup; the zero value selects full fidelity.
type Config struct {
	// Seeds is the number of random scenarios per data point
	// (default 40, as in §7).
	Seeds int
	// SizeFactor scales AP and user counts (default 1.0). Tests use
	// small factors to keep runtimes sane; headline numbers use 1.
	SizeFactor float64
	// ILPMaxNodes caps the branch-and-bound per optimal solve in the
	// Figure 12 experiments (0 = solver default). When the cap is hit
	// the incumbent (a valid association, possibly suboptimal) is
	// still reported.
	ILPMaxNodes int
	// Workers bounds the worker pool that evaluates seeds in
	// parallel: <= 0 selects GOMAXPROCS, 1 forces the classic
	// sequential order. The figures are identical for every value;
	// only wall-clock time changes.
	Workers int
	// Progress, when non-nil, receives one line per completed data
	// point. Delivery is serialized even when Workers > 1 — the
	// callback is never invoked concurrently, so it needs no locking
	// of its own.
	Progress func(format string, args ...any)
	// Obs, when set, is handed to the runner so sweeps accumulate
	// runner_tasks_total and the runner_task_seconds /
	// runner_queue_wait_seconds histograms across experiments.
	Obs *obs.Registry
	// Trace, when active, receives one EvRunnerTask event per
	// completed (point, seed) evaluation. Wrap it in an obs.Sampler
	// to thin high-volume sweeps.
	Trace obs.Recorder
}

func (c Config) normalize() Config {
	if c.Seeds <= 0 {
		c.Seeds = 40
	}
	if c.SizeFactor <= 0 {
		c.SizeFactor = 1
	}
	return c
}

func (c Config) scale(n int) int {
	v := int(float64(n)*c.SizeFactor + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

func (c Config) logf(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// Experiment is one reproducible figure.
type Experiment struct {
	// ID is the DESIGN.md experiment id, e.g. "fig9a".
	ID string
	// Title is the figure caption.
	Title string
	// Run executes the sweep. Cancelling ctx (deadline, Ctrl-C)
	// aborts the sweep after the in-flight seed evaluations finish.
	Run func(ctx context.Context, cfg Config) (*metrics.Figure, error)
}

// All returns every registered experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig9a", Title: "Total AP load vs number of users (200 APs, 5 sessions)", Run: Fig9a},
		{ID: "fig9b", Title: "Total AP load vs number of APs (100 users, 5 sessions)", Run: Fig9b},
		{ID: "fig9c", Title: "Total AP load vs number of sessions (200 APs, 200 users)", Run: Fig9c},
		{ID: "fig10a", Title: "Max AP load vs number of users (200 APs, 5 sessions)", Run: Fig10a},
		{ID: "fig10b", Title: "Max AP load vs number of APs (100 users, 5 sessions)", Run: Fig10b},
		{ID: "fig10c", Title: "Max AP load vs number of sessions (200 APs, 200 users)", Run: Fig10c},
		{ID: "fig11", Title: "Satisfied users vs multicast load budget (400 users, 100 APs, 18 sessions)", Run: Fig11},
		{ID: "fig12a", Title: "Total AP load vs users, with optimal (30 APs, 600x600 m)", Run: Fig12a},
		{ID: "fig12b", Title: "Max AP load vs users, with optimal (30 APs, 600x600 m)", Run: Fig12b},
		{ID: "fig12c", Title: "Unsatisfied users vs users, with optimal (30 APs, budget 0.042)", Run: Fig12c},
	}
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Value is one labeled measurement produced by a single seed
// evaluation; runSeeds regroups values into per-label series.
type Value struct {
	Label string
	V     float64
}

// runSeeds is the sweep engine under every experiment: it fans one
// evaluation per (x point, seed) pair out over the shared runner,
// then regroups the labeled values point-major, seed-major, labels in
// first-seen order — a deterministic layout that does not depend on
// completion order — and fills fig with one Stat per label per x.
// fig.X must be set and cfg normalized before calling.
func runSeeds(ctx context.Context, cfg Config, fig *metrics.Figure, fn func(ctx context.Context, point, seed int) ([]Value, error)) (*metrics.Figure, error) {
	res, err := runner.Map(ctx, runner.Options{
		Workers: cfg.Workers,
		Obs:     cfg.Obs,
		Trace:   cfg.Trace,
		OnProgress: func(ev runner.Event) {
			cfg.logf("%s: x=%v done (%d seeds) [%d/%d points, %.1f evals/s, %v elapsed]",
				fig.ID, fig.X[ev.Point], cfg.Seeds, ev.DonePoints, ev.Points,
				ev.TasksPerSec, ev.Elapsed.Round(time.Millisecond))
		},
	}, len(fig.X), cfg.Seeds, func(ctx context.Context, point, seed int) ([]Value, error) {
		vals, err := fn(ctx, point, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s at x=%v seed=%d: %w", fig.ID, fig.X[point], seed, err)
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	for p := range fig.X {
		perLabel := make(map[string][]float64)
		var order []string
		for s := 0; s < cfg.Seeds; s++ {
			for _, v := range res[p][s] {
				if _, seen := perLabel[v.Label]; !seen {
					order = append(order, v.Label)
				}
				perLabel[v.Label] = append(perLabel[v.Label], v.V)
			}
		}
		for _, label := range order {
			fig.AddPoint(label, metrics.Collect(perLabel[label]))
		}
	}
	if err := fig.Validate(); err != nil {
		return nil, err
	}
	return fig, nil
}

// sweep runs the generic experiment loop: for every x value and seed,
// build the scenario and evaluate every algorithm, collecting metric.
func sweep(
	ctx context.Context,
	cfg Config,
	fig *metrics.Figure,
	xs []float64,
	params func(x float64, seed int64) scenario.Params,
	algs func() []core.Algorithm,
	metric func(n *wlan.Network, r *core.Result) float64,
) (*metrics.Figure, error) {
	cfg = cfg.normalize()
	fig.X = xs
	return runSeeds(ctx, cfg, fig, func(ctx context.Context, point, seed int) ([]Value, error) {
		n, err := scenario.GenerateNetwork(params(xs[point], int64(seed)))
		if err != nil {
			return nil, err
		}
		out := make([]Value, 0, 4)
		for _, alg := range algs() {
			res, err := core.Evaluate(alg, n)
			if err != nil {
				return nil, err
			}
			out = append(out, Value{alg.Name(), metric(n, res)})
		}
		return out, nil
	})
}

// --- metric helpers ---

func totalLoad(n *wlan.Network, r *core.Result) float64 { return r.TotalLoad }

func maxLoad(n *wlan.Network, r *core.Result) float64 { return r.MaxLoad }

func satisfied(n *wlan.Network, r *core.Result) float64 { return float64(r.Satisfied) }

func unsatisfied(n *wlan.Network, r *core.Result) float64 {
	return float64(n.NumUsers() - r.Satisfied)
}

// --- algorithm bundles ---

func mlaAlgs() []core.Algorithm {
	return []core.Algorithm{
		&core.CentralizedMLA{},
		&core.Distributed{Objective: core.ObjMLA},
		&core.SSA{},
	}
}

func blaAlgs() []core.Algorithm {
	return []core.Algorithm{
		&core.CentralizedBLA{},
		&core.Distributed{Objective: core.ObjBLA},
		&core.SSA{},
	}
}

func mnuAlgs() []core.Algorithm {
	return []core.Algorithm{
		&core.CentralizedMNU{},
		&core.Distributed{Objective: core.ObjMNU, EnforceBudget: true},
		&core.SSA{EnforceBudget: true},
	}
}

// fig12Area is the paper's Figure 12 deployment area ("600 m²",
// which we read as a 600 m x 600 m square — see DESIGN.md).
var fig12Area = geom.Square(600)
