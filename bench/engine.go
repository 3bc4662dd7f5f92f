package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"wlanmcast/internal/core"
	"wlanmcast/internal/engine"
	"wlanmcast/internal/scenario"
)

// engineInputs is everything one daemon workload is made from, all of
// it a function of the seed.
type engineInputs struct {
	spec    *scenario.Spec
	request []byte // POST /v1/scenario body
	// cfg is the engine the daemon builds from request and flags, on
	// one shard: the configuration of the in-process reference.
	cfg    engine.Config
	events []engine.Event
	enc    *encoded
	flags  []string // assocd flags besides -serve and -addr
	// durable gives every daemon incarnation a -data-dir.
	durable bool
	// oneCPU confines the load generator and the daemon to one CPU and
	// one Go scheduler thread each (see confineToOneCPU).
	oneCPU bool
	// setupReps is how many times set-up is measured.
	setupReps int
	// ladderEvents bounds the trace prefix the in-process rungs replay.
	ladderEvents, ladderWindow int
}

// encode marshals the scenario request and the trace, once.
func (in *engineInputs) encode() (err error) {
	req := struct {
		Spec        *scenario.Spec `json:"spec"`
		ActiveUsers int            `json:"active_users,omitempty"`
	}{in.spec, in.cfg.ActiveUsers}
	if in.request, err = json.Marshal(req); err != nil {
		return err
	}
	in.enc, err = encodeEvents(in.events)
	return err
}

// measured is what driving the daemon produced.
type measured struct {
	parts []part // what the daemon applied, in order
	// rates, p50s, p90s and p99s hold one figure per slice of the
	// measured phase (see stats.go); samples is the number of latency
	// samples behind the quantiles.
	rates, p50s, p90s, p99s []float64
	samples                 int
	// events and wall are the throughput phase as a whole: acked events
	// over the time they took, recoveries included.
	events     int
	wall       time.Duration
	lateMS     []float64 // open loop only: how late each write started
	recoveries []float64 // seconds, one per kill/restart cycle
	// checkpoints maps an event offset to the association digest the
	// daemon served there, for the reference to confirm.
	checkpoints map[int]digest
}

// addOps folds one run of back-to-back operations into the slices.
func (m *measured) addOps(start time.Time, ops []sample, eventsPerOp, perSlice int) {
	acked, ms := make([]time.Time, len(ops)), make([]float64, len(ops))
	for i, op := range ops {
		acked[i], ms[i] = op.acked, op.ms()
	}
	m.rates = append(m.rates, sliceRates(start, acked, eventsPerOp, perSlice)...)
	m.p50s = append(m.p50s, sliceQuantiles(ms, perSlice, 0.50)...)
	m.p90s = append(m.p90s, sliceQuantiles(ms, perSlice, 0.90)...)
	m.p99s = append(m.p99s, sliceQuantiles(ms, perSlice, 0.99)...)
	m.samples += len(ops)
}

// host is the daemon under test across restarts: it carries the CPU
// time, peak memory and counter values of incarnations that have
// ended, so totals survive a SIGKILL.
type host struct {
	r    *runner
	ctx  context.Context
	bin  string
	args []string
	env  []string // added to the daemon's environment
	d    *daemon

	cpu    float64
	rssMB  float64
	series map[string]float64
}

func (h *host) start() (err error) {
	if h.d, err = startDaemon(h.ctx, h.bin, h.env, h.args...); err == nil {
		h.r.daemons = append(h.r.daemons, h.d)
	}
	return err
}

// stop folds the live incarnation's accounts into the totals and
// SIGKILLs it.
func (h *host) stop(scrape bool) error {
	if scrape {
		live, err := h.d.scrape()
		if err != nil {
			return err
		}
		if h.series == nil {
			h.series = map[string]float64{}
		}
		for k, v := range live {
			h.series[k] += v
		}
	}
	cpu, err := procCPUSeconds(h.d.pid())
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(h.d.pid())
	if err != nil {
		return err
	}
	h.cpu += cpu
	h.rssMB = max(h.rssMB, rss)
	h.d.kill()
	h.d = nil
	return nil
}

// totals is ended incarnations plus the live one.
func (h *host) totals() (series map[string]float64, cpu float64, err error) {
	live, err := h.d.scrape()
	if err != nil {
		return nil, 0, err
	}
	for k, v := range h.series {
		live[k] += v
	}
	c, err := procCPUSeconds(h.d.pid())
	return live, h.cpu + c, err
}

// driveFunc runs a workload's measured phase against the host.
type driveFunc func(ctx context.Context, r *runner, in *engineInputs, h *host) (*measured, error)

// runEngine is the frame every daemon workload shares: generate
// inputs, measure set-up, drive the daemon, verify its final state
// against the reference engine, and report.
func runEngine(ctx context.Context, r *runner, gen func() (*engineInputs, error), drive driveFunc) error {
	id := r.tr.begin("input.generate")
	in, err := gen()
	if err == nil {
		err = in.encode()
	}
	r.tr.end(id)
	if err != nil {
		return err
	}
	r.counts["aps"], r.counts["users"] = len(in.spec.APPositions), len(in.spec.UserPositions)
	r.counts["trace_events"] = len(in.events)
	bin, err := r.assocd(ctx)
	if err != nil {
		return err
	}

	var env []string
	release := func() {}
	if in.oneCPU {
		cpu, undo, err := confineToOneCPU()
		if err != nil {
			return fmt.Errorf("confine load generator and daemon to one CPU: %w", err)
		}
		release = sync.OnceFunc(undo)
		defer release()
		r.counts["shared_cpu"] = cpu
		env = []string{"GOMAXPROCS=1"}
	}

	// Set-up is exec of the daemon to the 200 of POST /v1/scenario,
	// each time on a fresh process (and journal); the last one stays.
	var h *host
	var setups []float64
	for i := 0; i < in.setupReps; i++ {
		if h != nil {
			if err := h.stop(false); err != nil {
				return err
			}
		}
		args := in.flags
		if in.durable {
			args = append(append([]string(nil), args...), "-data-dir", r.dataDir(i))
		}
		h = &host{r: r, ctx: ctx, bin: bin, args: args, env: env}
		id := r.tr.begin("setup")
		if err := h.start(); err != nil {
			return err
		}
		r.tr.add("assocd.exec_to_listen", h.d.started, h.d.listening)
		_, err := r.timed("assocd.post_scenario", func() error {
			_, err := h.d.do("POST", "/v1/scenario", in.request)
			return err
		})
		if err != nil {
			return fmt.Errorf("load scenario: %w (daemon says: %s)", err, h.d.stderrTail())
		}
		setups = append(setups, time.Since(h.d.started).Seconds())
		r.tr.end(id)
	}

	before, cpuBefore, err := h.totals()
	if err != nil {
		return err
	}
	selfBefore := selfCPUSeconds()
	id = r.tr.begin("measure")
	m, err := drive(ctx, r, in, h)
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("%w (daemon says: %s)", err, daemonTail(h))
	}
	selfCPU := selfCPUSeconds() - selfBefore
	after, cpuAfter, err := h.totals()
	if err != nil {
		return err
	}
	var st status
	if err := h.d.getJSON("/v1/status", &st); err != nil {
		return err
	}
	final, err := fetchState(h.d, in.cfg.MaxHomes > 1)
	if err != nil {
		return err
	}
	heapMB, err := h.d.liveHeapMB()
	if err != nil {
		return err
	}
	if err := h.stop(false); err != nil {
		return err
	}
	release() // the reference and the ladder get the whole machine back

	sent := 0
	for _, p := range m.parts {
		sent += p.to - p.from
	}
	r.attempted = sent
	r.counts["events"], r.counts["throughput_events"] = sent, m.events
	r.counts["latency_samples"], r.counts["slices"] = m.samples, len(m.rates)
	if sent == len(in.events) {
		// The daemon outran the generated trace: the phase ended early.
		// Rates stay right; raise the workload's trace cap.
		r.counts["trace_exhausted"] = 1
	}

	ref, err := replay(ctx, r, in, m.parts, m.checkpoints)
	if err != nil {
		return err
	}
	if err := ref.confirm(final, st); err != nil {
		r.logf("output check failed: %v", err)
		r.failed = r.attempted
	}
	r.verified = true

	// The paper's yardstick: every user on its strongest AP, on the
	// network as the trace left it.
	ssa, err := (&core.SSA{}).Run(ref.eng.Network())
	if err != nil {
		return err
	}
	ssaLoad := ref.eng.Network().TotalLoad(ssa)
	served := st.Satisfied
	if st.MaxHomes > 1 {
		served = st.MultiSatisfied
	}
	if len(m.rates) == 0 || len(m.p50s) == 0 || m.wall <= 0 || served == 0 || st.ActiveUsers == 0 || ssaLoad == 0 {
		return fmt.Errorf("nothing measured: %d rate and %d latency slices, %v wall, %d of %d users served", len(m.rates), len(m.p50s), m.wall, served, st.ActiveUsers)
	}
	r.slices = map[string][]float64{"setup_s": setups, "events_per_s": m.rates, "latency_ms_p50": m.p50s, "latency_ms_p90": m.p90s}
	r.e2e["setup_s"] = median(setups)
	r.e2e["events_per_s"] = undisturbedRate(m.rates)
	r.e2e["latency_ms_p50"] = undisturbedLatency(m.p50s)
	r.e2e["latency_ms_p90"] = undisturbedLatency(m.p90s)
	r.e2e["live_heap_mb"] = heapMB
	r.e2e["load_vs_ssa"] = st.TotalLoad / ssaLoad
	r.e2e["satisfied_fraction"] = float64(served) / float64(st.ActiveUsers)
	if !r.traced() {
		return nil
	}

	diff := func(series string) float64 { return after[series] - before[series] }
	r.layer["assocd.cpu_s"] = cpuAfter - cpuBefore
	r.layer["proc.peak_rss_mb"] = h.rssMB
	for _, stage := range []string{"validate", "queue_wait", "apply", "handoff_depart", "handoff_arrive", "reduce"} {
		r.layer["assocd.stage_s."+stage] = diff(`assocd_stage_seconds_sum{stage="` + stage + `"}`)
	}
	r.layer["assocd.wal_fsyncs"] = diff("assocd_wal_fsync_seconds_count")
	r.layer["assocd.wal_bytes"] = diff("assocd_wal_bytes_total")
	r.layer["assocd.snapshots"] = diff("assocd_wal_snapshots_total")
	r.layer["assocd.replay_events"] = diff("assocd_wal_replay_events_total")
	r.layer["assocd.recovery_s"] = median(m.recoveries)
	// What the daemon's wall time holds beyond the engine work the
	// reference needed for the same events: HTTP, decode, journal,
	// snapshots, recovery, scheduling.
	r.layer["assocd.unattributed_fraction"] = 1 - ref.throughputSeconds/m.wall.Seconds()
	r.layer["verify.replay_s"] = ref.seconds
	r.layer["client.cpu_s"] = selfCPU
	r.layer["client.latency_ms_p99"] = undisturbedLatency(m.p99s)
	r.layer["client.gen_late_ms_p99"] = quantile(m.lateMS, 0.99)
	r.layer["client.latency_samples"] = float64(m.samples)
	r.layer["client.events_per_s_overall"] = float64(m.events) / m.wall.Seconds()
	r.layer["client.events"] = float64(sent)
	r.layer["quality.max_load"] = st.MaxLoad
	r.layer["trace.overhead_fraction"] = r.tr.overhead("measure")

	id = r.tr.begin("ladder")
	defer r.tr.end(id)
	if err := r.setupRungs(in.spec); err != nil {
		return err
	}
	if err := r.innerRungs(in.spec); err != nil {
		return err
	}
	snapshot, err := r.engineLadder(in, in.ladderEvents, in.ladderWindow)
	if err != nil {
		return err
	}
	if err := r.wireRung(in.enc, in.ladderEvents); err != nil {
		return err
	}
	if in.durable {
		if err := r.walLadder(in.enc, in.ladderEvents, in.ladderWindow, snapshot); err != nil {
			return err
		}
	} else {
		r.zero(walRungs...)
	}
	r.zero(solveRungs...)
	return nil
}

func daemonTail(h *host) string {
	if h.d == nil {
		return "(not running)"
	}
	return h.d.stderrTail()
}

// postEach is the closed loop of the request workloads: one event per
// POST /v1/events, the next sent when the previous response has been
// read, until the deadline or the trace ends.
func (d *daemon) postEach(tr *tracer, enc *encoded, from, limit int, deadline time.Time) (part, []sample, error) {
	var rtt []sample
	u := d.url("/v1/events")
	i := from
	for i < limit && (i == from || time.Now().Before(deadline)) {
		t0 := time.Now()
		resp, err := httpc.Post(u, "application/json", bytes.NewReader(enc.object(i)))
		if err != nil {
			return part{}, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return part{}, nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return part{}, nil, fmt.Errorf("event %d: %s: %s", i, resp.Status, bytes.TrimSpace(body))
		}
		t1 := time.Now()
		tr.add("http.event", t0, t1)
		rtt = append(rtt, sample{t0, t1})
		i++
	}
	return part{from: from, to: i, window: 1}, rtt, nil
}

// driveRequests is the measured phase of request-campus and
// multihome-faults, perSlice requests to a slice.
func driveRequests(perSlice int) driveFunc {
	return func(ctx context.Context, r *runner, in *engineInputs, h *host) (*measured, error) {
		start := time.Now()
		p, ops, err := h.d.postEach(r.tr, in.enc, 0, len(in.events), start.Add(r.duration()))
		if err != nil {
			return nil, err
		}
		m := &measured{parts: []part{p}, events: p.to - p.from, wall: time.Since(start)}
		m.addOps(start, ops, 1, perSlice)
		return m, nil
	}
}

func (r *runner) duration() time.Duration {
	return time.Duration(r.seconds * float64(time.Second))
}
