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
// family.
//
// The stream survives daemon restarts: every connection carries a
// session token and a resume offset (the last acked seq), so when the
// connection drops — a crash, a drain frame from a graceful shutdown,
// or a transient transport error — loadgen reconnects with capped
// exponential backoff and resumes from the last ack. The daemon skips
// any prefix it already holds durably, so no event is applied twice
// even when the crash landed between apply and ack.
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
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"wlanmcast/internal/engine"
	"wlanmcast/internal/fault"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
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
	// recorded nothing, e.g. a zero-event run).
	P50Sec    float64 `json:"p50_s"`
	P99Sec    float64 `json:"p99_s"`
	TotalLoad float64 `json:"total_load"`
	MaxLoad   float64 `json:"max_load"`
	// Stages breaks the daemon-side cost down by pipeline stage
	// (queue-wait, apply, reduce, ...), diffed around the run from
	// the daemon's labeled assocd_stage_seconds family. Empty when
	// the daemon does not expose the family (older daemon) or
	// recorded nothing.
	Stages []stageLatency `json:"stages,omitempty"`
}

// stageLatency is one row of the per-stage breakdown.
type stageLatency struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	P50Sec float64 `json:"p50_s"`
	P99Sec float64 `json:"p99_s"`
}

// The daemon's stream frame shapes (mirrored here; cmd packages do
// not import each other).
type wireAck struct {
	Seq         int `json:"seq"`
	Applied     int `json:"applied"`
	Redecisions int `json:"redecisions"`
	Moves       int `json:"moves"`
}

type wireDone struct {
	Events      int     `json:"events"`
	Redecisions int     `json:"redecisions"`
	Moves       int     `json:"moves"`
	TotalLoad   float64 `json:"total_load"`
	MaxLoad     float64 `json:"max_load"`
}

type wireSession struct {
	Token   string `json:"token"`
	Seq     int    `json:"seq"`
	Skipped int    `json:"skipped"`
}

type wireFrame struct {
	Session *wireSession `json:"session"`
	Ack     *wireAck     `json:"ack"`
	Done    *wireDone    `json:"done"`
	Drain   bool         `json:"drain"`
	Event   int          `json:"event"`
	Error   string       `json:"error"`
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
		return err
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

	before, err := scrapeHistogram(base, "assocd_event_latency_seconds")
	if err != nil {
		return fmt.Errorf("scrape /metrics before run: %w", err)
	}
	stagesBefore, _, err := scrapeHistogramVec(base, "assocd_stage_seconds", "stage")
	if err != nil {
		return fmt.Errorf("scrape /metrics before run: %w", err)
	}

	rep, err := stream(base, trace, *window, *rate, *session, *maxReconn, stderr)
	if err != nil {
		return err
	}
	rep.TargetEPS = *rate

	after, err := scrapeHistogram(base, "assocd_event_latency_seconds")
	if err != nil {
		return fmt.Errorf("scrape /metrics after run: %w", err)
	}
	delta := after.Sub(before)
	if delta.Count > 0 {
		rep.P50Sec = delta.Quantile(0.50)
		rep.P99Sec = delta.Quantile(0.99)
	}
	stagesAfter, stageOrder, err := scrapeHistogramVec(base, "assocd_stage_seconds", "stage")
	if err != nil {
		return fmt.Errorf("scrape /metrics after run: %w", err)
	}
	for _, stg := range stageOrder {
		cur := stagesAfter[stg]
		// A stage family that appeared mid-run (or changed shape)
		// cannot be diffed; attribute its whole history to this run
		// rather than panicking in Sub.
		d := cur
		if prev, ok := stagesBefore[stg]; ok && len(prev.Bounds) == len(cur.Bounds) {
			d = cur.Sub(prev)
		}
		if d.Count == 0 {
			continue
		}
		rep.Stages = append(rep.Stages, stageLatency{
			Stage: stg, Count: d.Count,
			P50Sec: d.Quantile(0.50), P99Sec: d.Quantile(0.99),
		})
	}
	if len(rep.Stages) > 0 {
		fmt.Fprintf(stderr, "loadgen: per-stage latency (daemon-side, this run):\n")
		fmt.Fprintf(stderr, "  %-16s %10s %12s %12s\n", "stage", "count", "p50", "p99")
		for _, s := range rep.Stages {
			fmt.Fprintf(stderr, "  %-16s %10d %12s %12s\n",
				s.Stage, s.Count, fmtSeconds(s.P50Sec), fmtSeconds(s.P99Sec))
		}
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
	}
	return nil
}

// stream replays the trace over /v1/events/stream, pacing writes to
// rate (events/s; 0 = as fast as the connection drains) while a
// reader consumes ack frames concurrently. When a connection dies
// before the done frame — crash, drain frame, transport error — it
// reconnects with capped exponential backoff and resumes from the
// last acked seq, letting the daemon's session dedup skip anything
// that was already applied durably.
func stream(base string, trace []engine.Event, window int, rate float64, session string, maxReconnects int, stderr io.Writer) (report, error) {
	rep := report{Events: len(trace)}
	start := time.Now()
	const initialBackoff, maxBackoff = 100 * time.Millisecond, 5 * time.Second
	offset := 0 // next trace index to offer = last seq the run knows is applied
	backoff := initialBackoff
	for {
		newOffset, done, retry, err := streamOnce(base, trace, offset, window, rate, &session, &rep, stderr)
		if newOffset > offset {
			backoff = initialBackoff // forward progress resets the backoff
		}
		offset = newOffset
		rep.Applied = offset
		rep.Session = session
		if done {
			break
		}
		if !retry {
			return rep, err
		}
		if rep.Reconnects >= maxReconnects {
			return rep, fmt.Errorf("stream failed after %d reconnects: %w", rep.Reconnects, err)
		}
		rep.Reconnects++
		fmt.Fprintf(stderr, "loadgen: stream interrupted at event %d/%d (%v); reconnect %d/%d in %v\n",
			offset, len(trace), err, rep.Reconnects, maxReconnects, backoff)
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	rep.ElapsedSec = time.Since(start).Seconds()
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
	return rep, nil
}

// streamOnce opens one stream connection offering trace[offset:] and
// consumes frames until done, an error, or the connection dies. It
// returns the updated global offset (last seq acked or skipped by the
// daemon), whether the trace completed, and whether a failure is
// worth a reconnect. The session token is updated in place from the
// daemon's session frame so the next connection resumes the same
// session.
func streamOnce(base string, trace []engine.Event, offset, window int, rate float64, session *string, rep *report, stderr io.Writer) (newOffset int, done, retry bool, err error) {
	// The frame loop below mutates offset; the writer must send from
	// the index the resume parameter promised, captured before spawn.
	from := offset
	pr, pw := io.Pipe()
	writeErr := make(chan error, 1)
	go func() {
		enc := json.NewEncoder(pw)
		start := time.Now()
		for i := from; i < len(trace); i++ {
			if rate > 0 {
				at := start.Add(time.Duration(float64(i-from) / rate * float64(time.Second)))
				time.Sleep(time.Until(at))
			}
			if err := enc.Encode(trace[i]); err != nil {
				writeErr <- err
				pw.CloseWithError(err)
				return
			}
		}
		writeErr <- nil
		pw.Close()
	}()
	// Closing the read side unblocks a writer mid-Encode when the
	// daemon terminated the stream early; the writer's error is then
	// expected, not a failure of this attempt.
	drainWriter := func() {
		pr.CloseWithError(io.ErrClosedPipe)
		<-writeErr
	}

	u := base + "/v1/events/stream?window=" + strconv.Itoa(window)
	if *session != "" {
		u += "&session=" + url.QueryEscape(*session) + "&resume=" + strconv.Itoa(from)
	}
	req, err := http.NewRequest("POST", u, pr)
	if err != nil {
		drainWriter()
		return offset, false, false, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		drainWriter()
		return offset, false, true, fmt.Errorf("open stream: %w", err)
	}
	defer resp.Body.Close()
	defer drainWriter()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		retriable := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
		return offset, false, retriable, fmt.Errorf("stream rejected: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}

	// Without a session frame (older daemon) ack seqs count from this
	// connection's start; with one they are session-global.
	connBase, sawSession := offset, false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var f wireFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return offset, false, false, fmt.Errorf("bad frame %q: %v", sc.Text(), err)
		}
		switch {
		case f.Session != nil:
			sawSession = true
			*session = f.Session.Token
			rep.ResumeGap += f.Session.Skipped
			if f.Session.Seq > offset {
				// The daemon applied past our last ack before the
				// previous connection died; it skips the overlap.
				offset = f.Session.Seq
			}
		case f.Ack != nil:
			if sawSession {
				offset = f.Ack.Seq
			} else {
				offset = connBase + f.Ack.Seq
			}
			rep.Windows++
		case f.Done != nil:
			rep.Redecisions += f.Done.Redecisions
			rep.Moves += f.Done.Moves
			rep.TotalLoad = f.Done.TotalLoad
			rep.MaxLoad = f.Done.MaxLoad
			if !sawSession {
				offset = connBase + f.Done.Events
			}
			return offset, true, false, nil
		case f.Drain:
			return offset, false, true, fmt.Errorf("daemon draining for shutdown")
		case f.Error != "":
			if strings.Contains(f.Error, "cannot resume from") {
				// The daemon lost durable state past f.Event (e.g. a
				// crash truncated unsynced journal tail); its engine
				// rewound with it, so re-sending from there is safe.
				return f.Event, false, true, fmt.Errorf("daemon rewound session to %d: %s", f.Event, f.Error)
			}
			return offset, false, false, fmt.Errorf("daemon rejected stream at event %d: %s", f.Event, f.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return offset, false, true, fmt.Errorf("read acks: %w", err)
	}
	return offset, false, true, fmt.Errorf("stream closed before the done frame")
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

// scrapeHistogram fetches /metrics and rebuilds one histogram family
// as an obs.HistogramSnapshot (cumulative bucket counts, like the
// exposition). A daemon without the family yet (no scenario loaded)
// yields an empty snapshot rather than an error.
func scrapeHistogram(base, name string) (obs.HistogramSnapshot, error) {
	var s obs.HistogramSnapshot
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, name+"_bucket{"):
			rest := line[len(name)+8:]
			le, val, ok := promBucket(rest)
			if !ok {
				return s, fmt.Errorf("unparseable bucket line %q", line)
			}
			if le == "+Inf" {
				continue // mirrors Count; Snapshot stores it separately
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return s, fmt.Errorf("bad le %q in %q", le, line)
			}
			s.Bounds = append(s.Bounds, b)
			s.Counts = append(s.Counts, val)
		case strings.HasPrefix(line, name+"_sum "):
			s.Sum, err = strconv.ParseFloat(strings.TrimSpace(line[len(name)+5:]), 64)
			if err != nil {
				return s, fmt.Errorf("bad sum line %q", line)
			}
		case strings.HasPrefix(line, name+"_count "):
			s.Count, err = strconv.ParseUint(strings.TrimSpace(line[len(name)+7:]), 10, 64)
			if err != nil {
				return s, fmt.Errorf("bad count line %q", line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	if len(s.Bounds) > 0 {
		s.Counts = append(s.Counts, s.Count) // the +Inf slot
	}
	return s, nil
}

// scrapeHistogramVec fetches /metrics and rebuilds a one-key labeled
// histogram family (series like `name_bucket{key="v",le="0.001"} 3`)
// as one HistogramSnapshot per label value, plus the label values in
// exposition order. A daemon without the family yields an empty map.
func scrapeHistogramVec(base, name, key string) (map[string]obs.HistogramSnapshot, []string, error) {
	snaps := map[string]*obs.HistogramSnapshot{}
	var order []string
	get := func(val string) *obs.HistogramSnapshot {
		s, ok := snaps[val]
		if !ok {
			s = &obs.HistogramSnapshot{}
			snaps[val] = s
			order = append(order, val)
		}
		return s
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	labelStart := "{" + key + `="`
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		switch {
		case strings.HasPrefix(rest, "_bucket"+labelStart):
			rest = rest[len("_bucket")+len(labelStart):]
			val, tail, ok := promQuoted(rest)
			if !ok || !strings.HasPrefix(tail, ",") {
				return nil, nil, fmt.Errorf("unparseable bucket line %q", line)
			}
			le, n, ok := promBucket(tail[1:])
			if !ok {
				return nil, nil, fmt.Errorf("unparseable bucket line %q", line)
			}
			if le == "+Inf" {
				continue // mirrors Count; Snapshot stores it separately
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad le %q in %q", le, line)
			}
			s := get(val)
			s.Bounds = append(s.Bounds, b)
			s.Counts = append(s.Counts, n)
		case strings.HasPrefix(rest, "_sum"+labelStart):
			rest = rest[len("_sum")+len(labelStart):]
			val, tail, ok := promQuoted(rest)
			if !ok || !strings.HasPrefix(tail, "} ") {
				return nil, nil, fmt.Errorf("unparseable sum line %q", line)
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(tail[2:]), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad sum line %q", line)
			}
			get(val).Sum = f
		case strings.HasPrefix(rest, "_count"+labelStart):
			rest = rest[len("_count")+len(labelStart):]
			val, tail, ok := promQuoted(rest)
			if !ok || !strings.HasPrefix(tail, "} ") {
				return nil, nil, fmt.Errorf("unparseable count line %q", line)
			}
			n, err := strconv.ParseUint(strings.TrimSpace(tail[2:]), 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad count line %q", line)
			}
			get(val).Count = n
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	out := make(map[string]obs.HistogramSnapshot, len(snaps))
	for val, s := range snaps {
		if len(s.Bounds) > 0 {
			s.Counts = append(s.Counts, s.Count) // the +Inf slot
		}
		out[val] = *s
	}
	return out, order, nil
}

// promQuoted splits `v"<tail>` at the closing quote.
func promQuoted(rest string) (val, tail string, ok bool) {
	q := strings.Index(rest, `"`)
	if q < 0 {
		return "", "", false
	}
	return rest[:q], rest[q+1:], true
}

// fmtSeconds renders a latency in seconds as a human duration.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Nanosecond).String()
}

// promBucket parses `le="X"} N` into (X, N).
func promBucket(rest string) (le string, val uint64, ok bool) {
	if !strings.HasPrefix(rest, `le="`) {
		return "", 0, false
	}
	rest = rest[4:]
	q := strings.Index(rest, `"`)
	if q < 0 {
		return "", 0, false
	}
	le = rest[:q]
	rest = strings.TrimPrefix(rest[q+1:], "}")
	v, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
	if err != nil {
		return "", 0, false
	}
	return le, v, true
}
