package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wlanmcast/internal/core"
	"wlanmcast/internal/geom"
	"wlanmcast/internal/netsim"
	"wlanmcast/internal/optimal"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/runner"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/wlan"
)

// scenarioFlags registers the scenario flags the modes share, bound
// into the returned Params: the sizes with the mode's aps and users
// defaults, and with budget (sim, gen) -budget and -basic-rate.
func scenarioFlags(fs *flag.FlagSet, aps, users int, budget bool) *scenario.Params {
	p := new(scenario.Params)
	fs.IntVar(&p.NumAPs, "aps", aps, "APs for generated scenarios")
	fs.IntVar(&p.NumUsers, "users", users, "users for generated scenarios")
	fs.IntVar(&p.NumSessions, "sessions", 5, "multicast sessions")
	fs.Int64Var(&p.Seed, "seed", 1, "scenario seed (netsim: also the protocol seed, the first of the batch with -runs)")
	if budget {
		fs.Float64Var(&p.Budget, "budget", wlan.DefaultBudget, "per-AP multicast load budget")
		fs.BoolVar(&p.BasicRateOnly, "basic-rate", false, "restrict multicast to the basic rate")
	}
	return p
}

// parseMode parses a mode's flags and reports whether the command line
// is usable. It refuses a positional argument, because flag parsing
// stops at the first one and would silently drop every flag after it,
// and a generator flag set beside -scenario, because the file fixes
// the network the flag would size.
func parseMode(fs *flag.FlagSet, args []string, stderr io.Writer) bool {
	if fs.Parse(args) != nil {
		return false // the flag package has reported it
	}
	var err error
	if fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	} else if f := fs.Lookup("scenario"); f != nil && f.Value.String() != "" {
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "aps", "users", "sessions", "budget", "basic-rate":
				if err == nil {
					err = fmt.Errorf("-%s cannot be combined with -scenario: the scenario file fixes the network", f.Name)
				}
			}
		})
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
		return false
	}
	return true
}

// loadNetwork reads the scenario JSON at path, or generates one from
// p when path is empty.
func loadNetwork(path string, p scenario.Params) (*wlan.Network, error) {
	if path == "" {
		return scenario.GenerateNetwork(p)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := scenario.Load(f)
	if err != nil {
		return nil, err
	}
	return spec.Network()
}

// --- sim ---

func runSim(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algName := fs.String("alg", "mla-c", "algorithm: ssa, mla-c, mla-d, bla-c, bla-d, mnu-c, mnu-d, mla-opt, bla-opt, mnu-opt, all")
	scenarioPath := fs.String("scenario", "", "scenario JSON (from experiments gen); empty generates one")
	p := scenarioFlags(fs, 200, 400, true)
	loads := fs.Bool("loads", false, "print every AP's load")
	dump := fs.String("dump", "", "write the resulting association(s) as JSON to this file")
	if !parseMode(fs, args, stderr) {
		return 2
	}

	names := []string{*algName}
	if *algName == "all" {
		names = []string{"ssa", "mla-c", "mla-d", "bla-c", "bla-d", "mnu-c", "mnu-d"}
	}
	var algs []core.Algorithm
	for _, name := range names {
		alg, err := algorithmByName(name)
		if err != nil {
			fmt.Fprintf(stderr, "experiments sim: %v\n", err)
			return 2
		}
		algs = append(algs, alg)
	}
	n, err := loadNetwork(*scenarioPath, *p)
	if err != nil {
		fmt.Fprintf(stderr, "experiments sim: %v\n", err)
		return 1
	}

	budget := 0.0
	if n.NumAPs() > 0 {
		budget = n.APs[0].Budget // every AP of a scenario shares its budget
	}
	fmt.Fprintf(stdout, "network: %d APs, %d users, %d sessions, budget %.3f\n",
		n.NumAPs(), n.NumUsers(), n.NumSessions(), budget)
	dumped := make(map[string]*wlan.Assoc)
	for _, alg := range algs {
		res, err := core.Evaluate(alg, n)
		if err != nil {
			fmt.Fprintf(stderr, "experiments sim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%-18s satisfied %4d/%d  total load %8.4f  max load %7.4f\n",
			res.Algorithm, res.Satisfied, n.NumUsers(), res.TotalLoad, res.MaxLoad)
		if *loads {
			for ap := 0; ap < n.NumAPs(); ap++ {
				if l := n.APLoad(res.Assoc, ap); l > 0 {
					fmt.Fprintf(stdout, "  ap %3d  load %.4f\n", ap, l)
				}
			}
		}
		dumped[res.Algorithm] = res.Assoc
	}
	if *dump != "" {
		// The associations as one JSON object keyed by algorithm name.
		b, err := json.MarshalIndent(dumped, "", "  ")
		if err == nil {
			err = os.WriteFile(*dump, append(b, '\n'), 0o666)
		}
		if err != nil {
			fmt.Fprintf(stderr, "experiments sim: %v\n", err)
			return 1
		}
	}
	return 0
}

func algorithmByName(name string) (core.Algorithm, error) {
	switch strings.ToLower(name) {
	case "ssa":
		return &core.SSA{}, nil
	case "ssa-budget":
		return &core.SSA{EnforceBudget: true}, nil
	case "mla-c":
		return &core.CentralizedMLA{}, nil
	case "mla-d":
		return &core.Distributed{Objective: core.ObjMLA}, nil
	case "bla-c":
		return &core.CentralizedBLA{}, nil
	case "bla-d":
		return &core.Distributed{Objective: core.ObjBLA}, nil
	case "mnu-c":
		return &core.CentralizedMNU{}, nil
	case "mnu-d":
		return &core.Distributed{Objective: core.ObjMNU, EnforceBudget: true}, nil
	case "mla-opt":
		return &optimal.MLA{}, nil
	case "bla-opt":
		return &optimal.BLA{}, nil
	case "mnu-opt":
		return &optimal.MNU{}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

// --- gen ---

func runGen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := scenarioFlags(fs, 200, 400, true)
	rate := fs.Float64("rate", 1.0, "session stream rate (Mbps)")
	width := fs.Float64("width", 1200, "area width (m)")
	height := fs.Float64("height", 1000, "area height (m)")
	placement := fs.String("placement", "uniform", "placement: uniform, grid, clustered")
	example := fs.String("example", "", "emit a canonical example instead: figure1, figure1-mnu, figure4")
	if !parseMode(fs, args, stderr) {
		return 2
	}
	var ok bool
	if p.Placement, ok = placements[*placement]; !ok {
		fmt.Fprintf(stderr, "experiments gen: unknown placement %q\n", *placement)
		return 2
	}
	p.Area = geom.Rect{Width: *width, Height: *height}
	p.SessionRate = radio.Mbps(*rate)

	spec, err := buildSpec(*example, *p)
	if err != nil {
		fmt.Fprintf(stderr, "experiments gen: %v\n", err)
		return 1
	}
	if err := spec.Save(stdout); err != nil {
		fmt.Fprintf(stderr, "experiments gen: %v\n", err)
		return 1
	}
	return 0
}

func buildSpec(example string, p scenario.Params) (*scenario.Spec, error) {
	switch example {
	case "":
		return scenario.Generate(p)
	case "figure1":
		return scenario.Figure1Spec(1, 1), nil
	case "figure1-mnu":
		return scenario.Figure1Spec(3, 3), nil
	case "figure4":
		return scenario.Figure4Spec(), nil
	default:
		return nil, fmt.Errorf("unknown example %q", example)
	}
}

// placements are gen's -placement names.
var placements = map[string]scenario.Placement{
	"uniform": scenario.Uniform, "grid": scenario.Grid, "clustered": scenario.Clustered,
}

// --- netsim ---

func runNetsim(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments netsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	objective := fs.String("objective", "mla", "objective: mnu, bla, mla")
	scenarioPath := fs.String("scenario", "", "scenario JSON; empty generates one")
	p := scenarioFlags(fs, 100, 200, false)
	jitter := fs.Duration("jitter", 200*time.Millisecond, "decision jitter (0 = simultaneous decisions)")
	interval := fs.Duration("interval", time.Second, "query interval")
	maxTime := fs.Duration("max-time", 120*time.Second, "virtual time limit")
	locks := fs.Bool("locks", false, "enable the lock-coordination extension (paper §8)")
	runs := fs.Int("runs", 1, "number of consecutive seeds to simulate")
	parallel := fs.Int("parallel", 0, "concurrent runs with -runs (0 = all CPUs)")
	if !parseMode(fs, args, stderr) {
		return 2
	}
	obj, err := core.ParseObjective(*objective)
	if err != nil {
		fmt.Fprintf(stderr, "experiments netsim: %v\n", err)
		return 2
	}
	if *runs < 1 {
		fmt.Fprintf(stderr, "experiments netsim: -runs must be >= 1\n")
		return 2
	}

	type outcome struct {
		res *netsim.Result
		n   *wlan.Network
	}
	simulate := func(seed int64) (outcome, error) {
		sp := *p
		sp.Seed = seed
		n, err := loadNetwork(*scenarioPath, sp)
		if err != nil {
			return outcome{}, err
		}
		res, err := netsim.Run(netsim.Options{
			Network:       n,
			Objective:     obj,
			EnforceBudget: obj == core.ObjMNU,
			QueryInterval: *interval,
			Jitter:        *jitter,
			UseLocks:      *locks,
			MaxTime:       *maxTime,
			Seed:          seed,
		})
		return outcome{res, n}, err
	}

	if *runs == 1 {
		o, err := simulate(p.Seed)
		if err != nil {
			fmt.Fprintf(stderr, "experiments netsim: %v\n", err)
			return 1
		}
		n, res, st := o.n, o.res, o.res.Stats
		fmt.Fprintf(stdout, "network: %d APs, %d users, %d sessions\n", n.NumAPs(), n.NumUsers(), n.NumSessions())
		fmt.Fprintf(stdout, "objective %s, jitter %v, locks %v\n", obj, *jitter, *locks)
		if res.Converged {
			fmt.Fprintf(stdout, "converged at %v (last move)\n", res.ConvergedAt.Round(time.Millisecond))
		} else {
			fmt.Fprintf(stdout, "NOT converged within %v\n", *maxTime)
		}
		fmt.Fprintf(stdout, "satisfied %d/%d  total load %.4f  max load %.4f\n",
			res.Assoc.SatisfiedCount(), n.NumUsers(), n.TotalLoad(res.Assoc), n.MaxLoad(res.Assoc))
		fmt.Fprintf(stdout, "signaling: %d msgs (%d probe req, %d probe resp, %d assoc, %d disassoc",
			st.Messages(), st.ProbeRequests, st.ProbeResponses, st.Associations, st.Disassociations)
		if st.LockRequests > 0 {
			fmt.Fprintf(stdout, ", %d lock req, %d grants, %d denials, %d releases",
				st.LockRequests, st.LockGrants, st.LockDenials, st.LockReleases)
		}
		fmt.Fprintf(stdout, ")\ndecisions %d, moves %d\n", st.Decisions, st.Moves)
		return 0
	}

	outs, err := runner.Map(ctx, runner.Options{
		Workers: *parallel,
		OnProgress: func(ev runner.Event) {
			fmt.Fprintf(stderr, "# %d/%d runs done (%.1f runs/s)\n", ev.DoneTasks, ev.Tasks, ev.TasksPerSec)
		},
	}, 1, *runs, func(_ context.Context, _, i int) (outcome, error) {
		return simulate(p.Seed + int64(i))
	})
	if err != nil {
		fmt.Fprintf(stderr, "experiments netsim: %v\n", err)
		return 1
	}

	batch := outs[0]
	var (
		converged, msgs, moves int
		totalLoad, maxLoad     float64
	)
	for _, o := range batch {
		if o.res.Converged {
			converged++
		}
		msgs += o.res.Stats.Messages()
		moves += o.res.Stats.Moves
		totalLoad += o.n.TotalLoad(o.res.Assoc)
		if l := o.n.MaxLoad(o.res.Assoc); l > maxLoad {
			maxLoad = l
		}
	}
	nRuns := float64(len(batch))
	fmt.Fprintf(stdout, "batch: %d runs, seeds %d..%d\n", len(batch), p.Seed, p.Seed+int64(len(batch))-1)
	fmt.Fprintf(stdout, "objective %s, jitter %v, locks %v\n", obj, *jitter, *locks)
	fmt.Fprintf(stdout, "converged %d/%d\n", converged, len(batch))
	fmt.Fprintf(stdout, "mean signaling %.1f msgs/run, mean moves %.1f/run\n", float64(msgs)/nRuns, float64(moves)/nRuns)
	fmt.Fprintf(stdout, "mean total load %.4f, worst max load %.4f\n", totalLoad/nRuns, maxLoad)
	return 0
}
