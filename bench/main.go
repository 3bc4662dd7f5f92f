// Command bench is the repository's end-to-end benchmark. It makes
// every input from -seed, drives the system from outside — the
// internal/* layers through their exported functions, cmd/assocd as a
// real subprocess over loopback HTTP — checks every output against an
// in-process reference, and prints each metric by name with its unit.
// The last line of standard output is one JSON object; see README.md
// and ../BENCHMARK.json for the contract.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-quick] [-out runs.jsonl]
//	bench -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runTimeout bounds one workload, children included: the contract
// allows 180 s per run.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root     = fs.String("root", ".", "repository root (holds BENCHMARK.json, cmd/assocd and bench/)")
		workload = fs.String("workload", "", "workload to run (a name from BENCHMARK.json)")
		seed     = fs.Int64("seed", 1, "seed for every generated input")
		seconds  = fs.Float64("seconds", 0, "length of the measured phase (0 = run_seconds from BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run plus the in-process ladder")
		quick    = fs.Bool("quick", false, "run at about 1/50 scale (smoke test; numbers are not comparable)")
		assocd   = fs.String("assocd", "", "assocd binary (empty = go build it once into a temp dir)")
		out      = fs.String("out", "", "append this run's result, stamp included, to a JSONL file (input of -compare)")
		compare  = fs.Bool("compare", false, "compare two JSONL result sets: bench -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		regressed, err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if regressed {
			return 3
		}
		return 0
	}
	wl, ok := workloads[*workload]
	if !ok || !spec.hasWorkload(*workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q; BENCHMARK.json lists %s\n", *workload, strings.Join(spec.workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *quick {
		*seconds = quickSeconds
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	r := &runner{
		name: *workload, seed: *seed, seconds: *seconds, quick: *quick,
		root: absRoot, assocdBin: *assocd, log: stderr,
		e2e: map[string]float64{}, layer: map[string]float64{}, counts: map[string]int{},
	}
	if *trace == 1 {
		r.tr = newTracer(*workload)
	}
	// Children die with the run on every path out of here: normal
	// return, error, signal (ctx) and timeout (ctx).
	res, err := r.execute(ctx, wl)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	if err := res.emit(stdout, spec, *trace == 1, *out); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// stamp identifies where and how a result was measured.
type stamp struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	HostCPUs   int            `json:"host_cpus"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Quick      bool           `json:"quick,omitempty"`
	Network    string         `json:"network"`
	Counts     map[string]int `json:"counts"`
}

// result is one run: what the driver reads (Correct, Attempted,
// Failed and one of the two metric sets) plus the stamp that -out and
// bench/out/ keep with it.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Stamp     stamp              `json:"stamp"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Slices holds the per-slice figures the timing metrics were taken
	// from (see stats.go), for judging how disturbed a run was.
	Slices map[string][]float64 `json:"slices"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit checks the computed metric names against BENCHMARK.json in
// both directions, prints every metric by name with its unit, keeps
// the stamped result under bench/out/ (and -out), and ends standard
// output with the driver's JSON line.
func (res *result) emit(stdout io.Writer, spec *benchSpec, traced bool, outPath string) error {
	if err := sameNames("end-to-end", res.EndToEnd, spec.EndToEnd); err != nil {
		return err
	}
	listed, got := spec.EndToEnd, res.EndToEnd
	if traced {
		if err := sameNames("per-layer", res.PerLayer, spec.PerLayer); err != nil {
			return err
		}
		listed, got = spec.PerLayer, res.PerLayer
	}
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g traced=%v commit=%s %s host_cpus=%d GOMAXPROCS=%d network=%s\n",
		res.Workload, res.Stamp.Seed, res.Stamp.Seconds, traced, res.Stamp.Commit, res.Stamp.GoVersion,
		res.Stamp.HostCPUs, res.Stamp.GOMAXPROCS, res.Stamp.Network)
	keys := make([]string, 0, len(res.Stamp.Counts))
	for k := range res.Stamp.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "# count %s = %d\n", k, res.Stamp.Counts[k])
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricValue{}}
	for _, m := range listed {
		fmt.Fprintf(stdout, "%-44s %16.6g %s\n", m.Name, got[m.Name], m.Unit)
		line.Metrics[m.Name] = metricValue{got[m.Name], m.Unit}
	}
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	full = append(full, '\n')
	if outPath != "" {
		f, err := os.OpenFile(outPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(full); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// sameNames is the drift gate: a metric the run computed but
// BENCHMARK.json does not list, or the reverse, is an error.
func sameNames(kind string, got map[string]float64, listed []metricSpec) error {
	var missing, extra []string
	seen := map[string]bool{}
	for _, m := range listed {
		seen[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(extra)
	return fmt.Errorf("%s metrics drifted from BENCHMARK.json: not computed %v, not listed %v", kind, missing, extra)
}

// commitOf reads the checked-out commit from .git without running
// git; a checkout that is not a repository reports "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	b, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func newStamp(r *runner) stamp {
	return stamp{
		Commit:     commitOf(r.root),
		GoVersion:  runtime.Version(),
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       r.seed,
		Seconds:    r.seconds,
		Quick:      r.quick,
		Network:    "loopback",
		Counts:     r.counts,
	}
}

var errNotVerified = errors.New("run ended without verifying its outputs")
