// Command assocd runs the message-level distributed-protocol
// simulation (internal/netsim) on a scenario and reports convergence
// and signaling overhead — the concerns §8 of the paper raises about
// distributed association at scale.
//
// Usage:
//
//	assocd -objective bla [-locks] [-jitter 200ms] [-aps N] [-users N] [-runs N] [-parallel W]
//
// With -runs N > 1 the simulation repeats over N consecutive seeds
// (seed, seed+1, ...) fanned out over the shared experiment runner
// (-parallel workers, 0 = all CPUs), and a convergence/signaling
// summary over the batch is reported; Ctrl-C cancels the batch.
//
// With -serve the command instead runs as a long-lived association
// daemon: an HTTP JSON API (see serve.go) over the online incremental
// engine in internal/engine. -shards is accepted and ignored: the
// engine applies every batch serially. Ctrl-C / SIGTERM shuts it down
// gracefully; SIGQUIT dumps the engine's flight recorder to stderr
// without stopping it.
//
//	assocd -serve [-addr 127.0.0.1:8700] [-data-dir DIR]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wlanmcast/internal/core"
	"wlanmcast/internal/netsim"
	"wlanmcast/internal/runner"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/wlan"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("assocd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	objective := fs.String("objective", "mla", "objective: mnu, bla, mla")
	scenarioPath := fs.String("scenario", "", "scenario JSON; empty generates one")
	aps := fs.Int("aps", 100, "APs for generated scenarios")
	users := fs.Int("users", 200, "users for generated scenarios")
	sessions := fs.Int("sessions", 5, "multicast sessions")
	seed := fs.Int64("seed", 1, "scenario + protocol seed (first of the batch with -runs)")
	jitter := fs.Duration("jitter", 200*time.Millisecond, "decision jitter (0 = simultaneous decisions)")
	interval := fs.Duration("interval", time.Second, "query interval")
	maxTime := fs.Duration("max-time", 120*time.Second, "virtual time limit")
	locks := fs.Bool("locks", false, "enable the lock-coordination extension (paper §8)")
	runs := fs.Int("runs", 1, "number of consecutive seeds to simulate")
	parallel := fs.Int("parallel", 0, "concurrent runs with -runs (0 = all CPUs)")
	serve := fs.Bool("serve", false, "run as a long-lived association daemon (HTTP JSON API)")
	addr := fs.String("addr", "127.0.0.1:8700", "listen address with -serve")
	shards := fs.Int("shards", 1, "accepted for compatibility and ignored: the engine is serial (>= 1)")
	dataDir := fs.String("data-dir", "", "with -serve, directory for the write-ahead journal and snapshots (empty = no durability)")
	fsyncPolicy := fs.String("fsync", "interval", "with -data-dir, journal fsync policy: always, interval, off")
	fsyncInterval := fs.Duration("fsync-interval", 100*time.Millisecond, "with -fsync interval, least time between fsyncs: an append syncs once this has passed since the last sync (no background flusher; a snapshot or shutdown also syncs)")
	snapEvents := fs.Int("snapshot-events", 4096, "with -data-dir, checkpoint after this many journaled events")
	snapInterval := fs.Duration("snapshot-interval", time.Minute, "with -data-dir, checkpoint at least this often (checked on journal writes)")
	multihome := fs.Int("multihome", 0, "with -serve, default per-user AP-set cap for scenarios that do not ask for one (<= 1 keeps single-AP association)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *shards < 1 {
		fmt.Fprintf(stderr, "assocd: -shards must be >= 1\n")
		return 2
	}

	if *serve {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fmt.Fprintf(stderr, "assocd: %v\n", err)
			return 1
		}
		if err := serveOn(ctx, ln, stderr, serveOptions{
			dataDir:       *dataDir,
			fsync:         *fsyncPolicy,
			fsyncInterval: *fsyncInterval,
			snapEvents:    *snapEvents,
			snapInterval:  *snapInterval,
			multihome:     *multihome,
		}); err != nil {
			fmt.Fprintf(stderr, "assocd: %v\n", err)
			return 1
		}
		return 0
	}

	obj, err := objectiveByName(*objective)
	if err != nil {
		fmt.Fprintf(stderr, "assocd: %v\n", err)
		return 2
	}
	if *runs < 1 {
		fmt.Fprintf(stderr, "assocd: -runs must be >= 1\n")
		return 2
	}

	simulate := func(ctx context.Context, s int64) (*netsim.Result, *wlan.Network, error) {
		// Scenario loads touch the filesystem; a transient read failure
		// should not kill a 40-run batch, so retry briefly before giving
		// up for real.
		var n *wlan.Network
		if err := retryBackoff(ctx, 3, 50*time.Millisecond, 2*time.Second, func() error {
			var err error
			n, err = loadNetwork(*scenarioPath, scenario.Params{
				NumAPs:      *aps,
				NumUsers:    *users,
				NumSessions: *sessions,
				Seed:        s,
			})
			return err
		}); err != nil {
			return nil, nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		res, err := netsim.Run(netsim.Options{
			Network:       n,
			Objective:     obj,
			EnforceBudget: obj == core.ObjMNU,
			QueryInterval: *interval,
			Jitter:        *jitter,
			UseLocks:      *locks,
			MaxTime:       *maxTime,
			Seed:          s,
		})
		return res, n, err
	}

	if *runs == 1 {
		res, n, err := simulate(ctx, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "assocd: %v\n", err)
			return 1
		}
		reportSingle(stdout, n, res, obj, *jitter, *locks, *maxTime)
		return 0
	}

	type outcome struct {
		res *netsim.Result
		n   *wlan.Network
	}
	outs, err := runner.Map(ctx, runner.Options{
		Workers: *parallel,
		OnProgress: func(ev runner.Event) {
			fmt.Fprintf(stderr, "# %d/%d runs done (%.1f runs/s)\n", ev.DoneTasks, ev.Tasks, ev.TasksPerSec)
		},
	}, 1, *runs, func(ctx context.Context, _, i int) (outcome, error) {
		res, n, err := simulate(ctx, *seed+int64(i))
		return outcome{res, n}, err
	})
	if err != nil {
		fmt.Fprintf(stderr, "assocd: %v\n", err)
		return 1
	}

	batch := outs[0]
	var (
		converged int
		msgs      int
		moves     int
		totalLoad float64
		maxLoad   float64
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
	fmt.Fprintf(stdout, "batch: %d runs, seeds %d..%d\n", len(batch), *seed, *seed+int64(len(batch))-1)
	fmt.Fprintf(stdout, "objective %s, jitter %v, locks %v\n", obj, *jitter, *locks)
	fmt.Fprintf(stdout, "converged %d/%d\n", converged, len(batch))
	fmt.Fprintf(stdout, "mean signaling %.1f msgs/run, mean moves %.1f/run\n", float64(msgs)/nRuns, float64(moves)/nRuns)
	fmt.Fprintf(stdout, "mean total load %.4f, worst max load %.4f\n", totalLoad/nRuns, maxLoad)
	return 0
}

func reportSingle(w io.Writer, n *wlan.Network, res *netsim.Result, obj core.Objective, jitter time.Duration, locks bool, maxTime time.Duration) {
	fmt.Fprintf(w, "network: %d APs, %d users, %d sessions\n", n.NumAPs(), n.NumUsers(), n.NumSessions())
	fmt.Fprintf(w, "objective %s, jitter %v, locks %v\n", obj, jitter, locks)
	if res.Converged {
		fmt.Fprintf(w, "converged at %v (last move)\n", res.ConvergedAt.Round(time.Millisecond))
	} else {
		fmt.Fprintf(w, "NOT converged within %v\n", maxTime)
	}
	fmt.Fprintf(w, "satisfied %d/%d  total load %.4f  max load %.4f\n",
		res.Assoc.SatisfiedCount(), n.NumUsers(), n.TotalLoad(res.Assoc), n.MaxLoad(res.Assoc))
	st := res.Stats
	fmt.Fprintf(w, "signaling: %d msgs (%d probe req, %d probe resp, %d assoc, %d disassoc",
		st.Messages(), st.ProbeRequests, st.ProbeResponses, st.Associations, st.Disassociations)
	if st.LockRequests > 0 {
		fmt.Fprintf(w, ", %d lock req, %d grants, %d denials, %d releases",
			st.LockRequests, st.LockGrants, st.LockDenials, st.LockReleases)
	}
	fmt.Fprintf(w, ")\n")
	fmt.Fprintf(w, "decisions %d, moves %d\n", st.Decisions, st.Moves)
}

func objectiveByName(name string) (core.Objective, error) {
	switch name {
	case "mnu":
		return core.ObjMNU, nil
	case "bla":
		return core.ObjBLA, nil
	case "mla":
		return core.ObjMLA, nil
	default:
		return 0, fmt.Errorf("unknown objective %q", name)
	}
}

// retryBackoff runs fn up to attempts times, doubling the wait from
// base between failures and respecting ctx cancellation. maxWait caps
// the total time spent sleeping (<= 0 means uncapped): a backoff that
// would overrun the cap is trimmed to the remainder, and once the
// budget is spent the last error returns without further attempts —
// exponential doubling must not quietly turn a bounded retry into an
// unbounded stall. Returns nil on the first success, ctx's error if
// cancelled, and otherwise the last fn error.
func retryBackoff(ctx context.Context, attempts int, base, maxWait time.Duration, fn func() error) error {
	var err error
	waited := time.Duration(0)
	for i := 0; i < attempts; i++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = fn(); err == nil {
			return nil
		}
		if i == attempts-1 {
			break
		}
		d := base << i
		if maxWait > 0 {
			remain := maxWait - waited
			if remain <= 0 {
				break
			}
			if d > remain {
				d = remain
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
		waited += d
	}
	return err
}

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
