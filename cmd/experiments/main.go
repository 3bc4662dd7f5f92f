// Command experiments is the batch front end: it regenerates the
// paper's evaluation figures, and its three modes run one scenario.
//
// Usage:
//
//	experiments [-seeds N] [-size F] [-ilp-nodes N] [-parallel N] [-timeout D] [-csv] [-quiet] [-trace FILE] [-trace-sample N] [id|group ...]
//	experiments sim -alg mla-c|...|all [-scenario file.json] [-aps N] [-users N] [-loads] [-dump FILE]
//	experiments gen [-aps N] [-users N] [-seed S] [-example figure1|figure1-mnu|figure4] > scenario.json
//	experiments netsim -objective bla [-locks] [-jitter 200ms] [-aps N] [-users N] [-runs N] [-parallel W]
//
// sim reports each algorithm's association quality; gen writes
// scenario JSON; netsim runs the message-level distributed protocol
// (internal/netsim) and reports convergence and signaling overhead
// (paper §8), over the seeds seed, seed+1, ... with -runs N.
//
// Without a mode, every paper figure runs in order. Arguments may
// be individual experiment ids (see -list) or group aliases:
//
//	paper  the ten paper figures fig9a..fig12c (the default)
//	ext    the extension experiments (ext-basicrate, ext-power, ...)
//	dyn    the packet-level/mobility/interference experiments
//	all    paper + ext + dyn
//
// Seed evaluations fan out over -parallel workers (0 = all CPUs) via
// internal/runner; results are identical for every worker count.
// -timeout bounds the whole run, and Ctrl-C cancels it cleanly — in
// both cases the run stops after the in-flight seed evaluations
// finish. Each figure prints as an aligned text table (or CSV with
// -csv) of avg ±stddev [min, max] over the seeded scenarios, matching
// the paper's error-bar plots.
//
// -trace FILE streams one JSONL obs.Event per completed seed
// evaluation to FILE (type "runner_task", carrying the point/seed
// indices, the evaluation wall-clock and the queue wait);
// -trace-sample N keeps roughly 1 in N events for long sweeps.
// Unless -quiet, a per-experiment timing summary table — built from
// the same runner metrics the daemon exports — prints to stderr after
// the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wlanmcast/internal/experiments"
	"wlanmcast/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	if len(args) > 0 {
		switch args[0] { // a mode; any other argument is an experiment id or group
		case "sim":
			return runSim(args[1:], stdout, stderr)
		case "gen":
			return runGen(args[1:], stdout, stderr)
		case "netsim":
			return runNetsim(ctx, args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 40, "random scenarios per data point (paper: 40)")
	size := fs.Float64("size", 1.0, "scale factor on AP/user counts")
	ilpNodes := fs.Int("ilp-nodes", 200000, "branch-and-bound node cap for fig12 optimal curves")
	parallel := fs.Int("parallel", 0, "concurrent seed evaluations (0 = all CPUs, 1 = sequential)")
	timeout := fs.Duration("timeout", 0, "cancel the whole run after this long (0 = no limit)")
	csv := fs.Bool("csv", false, "emit CSV instead of text tables")
	quiet := fs.Bool("quiet", false, "suppress progress lines and the timing summary")
	list := fs.Bool("list", false, "list experiment ids and exit")
	traceOut := fs.String("trace", "", "write one JSONL trace event per seed evaluation to this file")
	traceSample := fs.Int("trace-sample", 1, "with -trace, keep roughly 1 in N events per type")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range allExperiments() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// One registry for the whole run: runner.Map re-registers its
	// instruments idempotently, so holding the instruments here gives
	// per-experiment deltas without touching the runner again.
	reg := obs.NewRegistry()
	rm := newRunMetrics(reg)
	cfg := experiments.Config{
		Seeds:       *seeds,
		SizeFactor:  *size,
		ILPMaxNodes: *ilpNodes,
		Workers:     *parallel,
		Obs:         reg,
	}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, "# "+format+"\n", args...)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: trace: %v\n", err)
			return 1
		}
		jl := obs.NewJSONL(f)
		cfg.Trace = jl
		if *traceSample > 1 {
			cfg.Trace = obs.NewSampler(*traceSample, jl)
		}
		defer func() {
			ferr := jl.Flush()
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
			if ferr != nil {
				fmt.Fprintf(stderr, "experiments: trace: %v\n", ferr)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	todo, err := resolveIDs(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}

	var timings []timingRow
	for _, e := range todo {
		start := time.Now()
		before := rm.sample()
		fig, err := e.Run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", e.ID, err)
			return 1
		}
		if *csv {
			fmt.Fprint(stdout, fig.CSV())
		} else {
			fmt.Fprintln(stdout, fig.Table())
		}
		wall := time.Since(start)
		timings = append(timings, timingRow{id: e.ID, wall: wall, delta: rm.sample().sub(before)})
		if !*quiet {
			fmt.Fprintf(stderr, "# %s finished in %v\n", e.ID, wall.Round(time.Millisecond))
		}
	}
	if !*quiet {
		printTimings(stderr, timings)
	}
	return 0
}

// runMetrics holds the runner's instruments so per-experiment deltas
// can be read without a metrics endpoint. Names and help strings
// match internal/runner exactly — registration is idempotent, so
// runner.Map returns these same instruments.
type runMetrics struct {
	tasks    *obs.Counter
	taskSecs *obs.Histogram
	waitSecs *obs.Histogram
}

func newRunMetrics(reg *obs.Registry) runMetrics {
	return runMetrics{
		tasks:    reg.Counter("runner_tasks_total", "Completed sweep (point, seed) evaluations."),
		taskSecs: reg.Histogram("runner_task_seconds", "Wall-clock time of one sweep evaluation.", nil),
		waitSecs: reg.Histogram("runner_queue_wait_seconds", "Time a sweep task waited for a free worker.", nil),
	}
}

// metricSample is a cumulative reading of the runner instruments.
type metricSample struct {
	tasks             uint64
	taskSec, queueSec float64
}

func (m runMetrics) sample() metricSample {
	return metricSample{tasks: m.tasks.Value(), taskSec: m.taskSecs.Sum(), queueSec: m.waitSecs.Sum()}
}

func (s metricSample) sub(prev metricSample) metricSample {
	return metricSample{tasks: s.tasks - prev.tasks, taskSec: s.taskSec - prev.taskSec, queueSec: s.queueSec - prev.queueSec}
}

// timingRow is one experiment's timing summary line.
type timingRow struct {
	id    string
	wall  time.Duration
	delta metricSample
}

// printTimings writes the per-experiment timing summary. task-sec is
// CPU-side evaluation time summed over workers, so task-sec/wall
// approximates the achieved parallelism; queue-sec is time tasks
// spent waiting for a free worker.
func printTimings(w io.Writer, rows []timingRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "# timing summary\n")
	fmt.Fprintf(w, "# %-16s %8s %12s %12s %12s %9s\n", "experiment", "tasks", "task-sec", "queue-sec", "wall", "evals/s")
	for _, r := range rows {
		evalsPerSec := 0.0
		if secs := r.wall.Seconds(); secs > 0 {
			evalsPerSec = float64(r.delta.tasks) / secs
		}
		fmt.Fprintf(w, "# %-16s %8d %12.3f %12.3f %12v %9.1f\n",
			r.id, r.delta.tasks, r.delta.taskSec, r.delta.queueSec,
			r.wall.Round(time.Millisecond), evalsPerSec)
	}
}

// allExperiments returns paper figures, extensions and dynamics in
// presentation order.
func allExperiments() []experiments.Experiment {
	var out []experiments.Experiment
	out = append(out, experiments.All()...)
	out = append(out, experiments.Extensions()...)
	out = append(out, experiments.Dynamics()...)
	return out
}

// resolveIDs expands experiment ids and group aliases (paper, ext,
// dyn, all) into the run list; no arguments selects the paper
// figures.
func resolveIDs(ids []string) ([]experiments.Experiment, error) {
	if len(ids) == 0 {
		return experiments.All(), nil
	}
	var todo []experiments.Experiment
	for _, id := range ids {
		switch strings.ToLower(id) {
		case "paper":
			todo = append(todo, experiments.All()...)
		case "ext":
			todo = append(todo, experiments.Extensions()...)
		case "dyn":
			todo = append(todo, experiments.Dynamics()...)
		case "all":
			todo = append(todo, allExperiments()...)
		default:
			e, ok := experiments.GetAny(strings.ToLower(id))
			if !ok {
				return nil, fmt.Errorf("unknown experiment or group %q (use -list, or paper/ext/dyn/all)", id)
			}
			todo = append(todo, e)
		}
	}
	return todo, nil
}
