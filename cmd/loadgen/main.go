// Command loadgen drives an assocd daemon over the streaming ingest
// endpoint: it loads a scenario, generates the same seeded
// Poisson/mobility churn (plus an optional fault schedule) the
// offline experiments use, replays it over /v1/events/stream at a
// target rate, and reports what the daemon achieved — events/s plus
// the p50/p99 per-event re-decision latency taken from the daemon's
// own assocd_event_latency_seconds histogram (diffed around the run,
// so a shared daemon reports only this replay's cost), and a
// per-stage p50/p99 breakdown (validate, apply, reduce, ...)
// diffed the same way from the daemon's labeled assocd_stage_seconds
// family (left out, with daemon_restarted set, if the daemon
// restarted during the run and its histograms with it).
//
// The stream survives daemon restarts. It runs on internal/stream's
// resumable client: every connection carries a session token and a
// resume offset (the last acked seq), so when the connection drops —
// a crash, a drain frame from a graceful shutdown, or a transient
// transport error — loadgen reconnects with capped exponential
// backoff and resumes from the last ack. The daemon skips any prefix
// it already holds durably, so no event is applied twice even when
// the crash landed between apply and ack.
//
// Example, 50k events as fast as the daemon accepts them:
//
//	assocd -serve -addr :8080 &
//	loadgen -addr http://127.0.0.1:8080 -events 50000
//
// and paced with AP faults layered in:
//
//	loadgen -addr http://127.0.0.1:8080 -events 50000 -rate 5000 -mtbf 40
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"wlanmcast/internal/engine"
	"wlanmcast/internal/fault"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/stream"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
	}
	os.Exit(exitCode(err))
}

// usageError is a bad command line: exit status 2, not 1.
type usageError struct{ error }

func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.As(err, new(usageError)):
		return 2
	}
	return 1
}

// report is the run summary, written as JSON to stdout (and -out).
type report struct {
	Events      int `json:"events"`
	Applied     int `json:"applied"`
	Windows     int `json:"windows"`
	Redecisions int `json:"redecisions"`
	Moves       int `json:"moves"`
	// Session is the stream session token (server-assigned unless
	// pinned with -session); Reconnects counts connections beyond the
	// first, and ResumeGap totals the events the daemon skipped on
	// resume because it had already applied them durably before the
	// previous connection died (apply-but-no-ack windows).
	Session     string  `json:"session,omitempty"`
	Reconnects  int     `json:"reconnects"`
	ResumeGap   int     `json:"resume_gap"`
	ElapsedSec  float64 `json:"elapsed_s"`
	TargetEPS   float64 `json:"target_eps,omitempty"`
	AchievedEPS float64 `json:"achieved_eps"`
	// P50/P99 are per-event apply latencies from the daemon's
	// histogram, interpolated within buckets (0 when the daemon
	// recorded nothing, e.g. a zero-event run, or restarted).
	P50Sec    float64 `json:"p50_s"`
	P99Sec    float64 `json:"p99_s"`
	TotalLoad float64 `json:"total_load"`
	MaxLoad   float64 `json:"max_load"`
	// Stages breaks the daemon-side cost down by pipeline stage
	// (queue-wait, apply, reduce, ...), diffed around the run from
	// the daemon's labeled assocd_stage_seconds family. Empty when
	// the daemon does not expose the family, recorded nothing, or
	// restarted.
	Stages []stageLatency `json:"stages,omitempty"`
	// DaemonRestarted: the scrape after the run came from a later
	// daemon process than the one before it, whose histograms cover
	// only that process, so P50/P99 and Stages are left out.
	DaemonRestarted bool `json:"daemon_restarted,omitempty"`
}

// stageLatency is one row of the per-stage breakdown.
type stageLatency struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	P50Sec float64 `json:"p50_s"`
	P99Sec float64 `json:"p99_s"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:8080", "assocd base URL")
		aps       = fs.Int("aps", 50, "scenario AP count")
		users     = fs.Int("users", 200, "scenario user slots")
		sessions  = fs.Int("sessions", 4, "scenario session count")
		active    = fs.Int("active", 150, "initially active users")
		seed      = fs.Int64("seed", 1, "trace and scenario seed")
		events    = fs.Int("events", 10000, "churn events to stream")
		rate      = fs.Float64("rate", 0, "target events/s (0 = unpaced)")
		window    = fs.Int("window", 512, "stream ack window")
		mtbf      = fs.Float64("mtbf", 0, "mean AP up-time in trace seconds (0 = no faults)")
		mttr      = fs.Float64("mttr", 15, "mean AP down-time in trace seconds")
		group     = fs.Int("group", 1, "correlated AP failure group size")
		flap      = fs.Float64("flap", 0, "probability a recovered AP flaps back down")
		session   = fs.String("session", "", "stream session token (empty = daemon-assigned on connect)")
		maxReconn = fs.Int("max-reconnects", 8, "give up after this many stream reconnects")
		out       = fs.String("out", "", "also write the JSON report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected argument %q", fs.Arg(0))}
	}

	// The scenario mirrors what the daemon will build from the same
	// request, so GenTrace's slot model (slots [0,active) start
	// active) matches the engine exactly and the trace needs no
	// remapping.
	base := strings.TrimSuffix(*addr, "/")
	var st struct {
		APs       int     `json:"aps"`
		Users     int     `json:"users"`
		Active    int     `json:"active_users"`
		TotalLoad float64 `json:"total_load"`
	}
	screq := map[string]any{
		"aps": *aps, "users": *users, "sessions": *sessions,
		"seed": *seed, "active_users": *active,
	}
	if err := postJSON(base+"/v1/scenario", screq, &st); err != nil {
		return fmt.Errorf("load scenario: %w", err)
	}
	fmt.Fprintf(stderr, "loadgen: scenario loaded: %d APs, %d users (%d active)\n",
		st.APs, st.Users, st.Active)

	trace, err := engine.GenTrace(engine.TraceParams{
		Seed:          *seed,
		Events:        *events,
		Area:          scenario.PaperDefaults().Area,
		Users:         *users,
		InitialActive: *active,
		Sessions:      *sessions,
	})
	if err != nil {
		return fmt.Errorf("generate trace: %w", err)
	}
	if *mtbf > 0 {
		horizon := 1.0
		if len(trace) > 0 {
			horizon = trace[len(trace)-1].At + 1e-9
		}
		sched, err := fault.Gen(fault.Params{
			Seed: *seed + 1, APs: *aps, Horizon: horizon,
			MTBF: *mtbf, MTTR: *mttr, GroupSize: *group, FlapProb: *flap,
		})
		if err != nil {
			return fmt.Errorf("generate faults: %w", err)
		}
		trace = engine.MergeFaults(trace, sched)
		fmt.Fprintf(stderr, "loadgen: merged %d fault actions into the trace\n", len(sched))
	}

	before, err := scrape(base)
	if err != nil {
		return fmt.Errorf("scrape /metrics before run: %w", err)
	}
	scraped := time.Now()

	c := &stream.Client{
		Base: base, Window: *window, Rate: *rate, Events: trace, Session: *session,
		Logf: func(format string, args ...any) { fmt.Fprintf(stderr, "loadgen: "+format+"\n", args...) },
	}
	start := time.Now()
	done, err := c.Run(*maxReconn)
	if err != nil {
		return err
	}
	rep := report{
		Events: len(trace), Applied: c.Offset, Windows: c.Acks,
		Redecisions: done.Redecisions, Moves: done.Moves,
		Session: c.Session, Reconnects: c.Reconnects, ResumeGap: c.Skipped,
		ElapsedSec: time.Since(start).Seconds(), TargetEPS: *rate,
		TotalLoad: done.TotalLoad, MaxLoad: done.MaxLoad,
	}
	if rep.ElapsedSec > 0 {
		rep.AchievedEPS = float64(rep.Applied) / rep.ElapsedSec
	}
	if rep.Reconnects > 0 {
		fmt.Fprintf(stderr, "loadgen: %d events in %.2fs (%.0f events/s; %d reconnects, resume gap %d)\n",
			rep.Applied, rep.ElapsedSec, rep.AchievedEPS, rep.Reconnects, rep.ResumeGap)
	} else {
		fmt.Fprintf(stderr, "loadgen: %d events in %.2fs (%.0f events/s)\n",
			rep.Applied, rep.ElapsedSec, rep.AchievedEPS)
	}

	between := time.Since(scraped)
	after, err := scrape(base)
	if err != nil {
		return fmt.Errorf("scrape /metrics after run: %w", err)
	}
	if restarted(before, after, between) {
		rep.DaemonRestarted = true
		fmt.Fprintf(stderr, "loadgen: the daemon restarted during the run; its histograms cover only the last process, so daemon-side p50/p99 and stages are left out\n")
	} else {
		rep.addDaemonLatency(before, after)
	}
	if len(rep.Stages) > 0 {
		fmt.Fprintf(stderr, "loadgen: per-stage latency (daemon-side, this run):\n")
		fmt.Fprintf(stderr, "  %-16s %10s %12s %12s\n", "stage", "count", "p50", "p99")
		for _, s := range rep.Stages {
			fmt.Fprintf(stderr, "  %-16s %10d %12s %12s\n",
				s.Stage, s.Count, fmtSeconds(s.P50Sec), fmtSeconds(s.P99Sec))
		}
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := stdout.Write(b); err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
	}
	return nil
}

func postJSON(url string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(b)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// daemonStats is one /metrics scrape: the daemon's uptime (hasUptime
// false when it is not exposed), its per-event latency histogram, and
// its per-stage histograms with the stage names in exposition order.
type daemonStats struct {
	uptime    float64
	hasUptime bool
	lat       obs.HistogramSnapshot
	stages    map[string]obs.HistogramSnapshot
	order     []string
}

// scrape fetches /metrics once and reads it into a daemonStats.
// Families the daemon has not registered yet (no scenario loaded)
// read as empty.
func scrape(base string) (daemonStats, error) {
	var st daemonStats
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	lines, err := obs.ParseProm(resp.Body)
	if err != nil {
		return st, err
	}
	for _, l := range lines {
		if l.Kind == "" && l.Name == "assocd_uptime_seconds" {
			st.uptime, st.hasUptime = l.Value, true
		}
	}
	lats, _, err := obs.PromHistograms(lines, "assocd_event_latency_seconds", "")
	if err != nil {
		return st, err
	}
	st.lat = lats[""]
	st.stages, st.order, err = obs.PromHistograms(lines, "assocd_stage_seconds", "stage")
	return st, err
}

// restarted reports whether cur, scraped between after prev, came
// from a later daemon process: its uptime is shorter than the time
// between the scrapes, or a histogram count went backwards.
func restarted(prev, cur daemonStats, between time.Duration) bool {
	if cur.hasUptime && cur.uptime < between.Seconds() {
		return true
	}
	if wentBack(prev.lat, cur.lat) {
		return true
	}
	for stg, p := range prev.stages {
		if wentBack(p, cur.stages[stg]) {
			return true
		}
	}
	return false
}

// wentBack reports whether any count of cur is below prev's.
func wentBack(prev, cur obs.HistogramSnapshot) bool {
	if cur.Count < prev.Count {
		return true
	}
	for i := range min(len(prev.Counts), len(cur.Counts)) {
		if cur.Counts[i] < prev.Counts[i] {
			return true
		}
	}
	return false
}

// addDaemonLatency fills P50/P99 and Stages from the histograms of
// one daemon process scraped before and after the run.
func (rep *report) addDaemonLatency(before, after daemonStats) {
	if d := delta(before.lat, after.lat); d.Count > 0 {
		rep.P50Sec = d.Quantile(0.50)
		rep.P99Sec = d.Quantile(0.99)
	}
	for _, stg := range after.order {
		d := delta(before.stages[stg], after.stages[stg])
		if d.Count == 0 {
			continue
		}
		rep.Stages = append(rep.Stages, stageLatency{
			Stage: stg, Count: d.Count,
			P50Sec: d.Quantile(0.50), P99Sec: d.Quantile(0.99),
		})
	}
}

// delta is cur minus prev. A family that appeared mid-run (or changed
// shape) cannot be diffed, so its whole history counts as this run's
// rather than panicking in Sub.
func delta(prev, cur obs.HistogramSnapshot) obs.HistogramSnapshot {
	if len(prev.Bounds) != len(cur.Bounds) {
		return cur
	}
	return cur.Sub(prev)
}

// fmtSeconds renders a latency in seconds as a human duration.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Nanosecond).String()
}
