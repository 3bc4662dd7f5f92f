package main

import (
	"context"
	"fmt"
	"time"

	"wlanmcast/internal/engine"
)

// Trace caps, in events per measured second: a few times what the
// daemon sustains today, so a run ends on its deadline, not on the end
// of its trace. A run that does hit the end says so
// (count trace_exhausted) and is still measured correctly.
const (
	churnCapPerSec     = 120000
	durableCapPerSec   = 80000
	requestCapPerSec   = 20000
	multihomeCapPerSec = 6000
)

// The open-loop phase of stream-churn: a fixed rate well under what
// the daemon sustains unpaced, in windows small enough that a few
// seconds give the thousand samples a p99 needs.
const (
	pacedRate   = 16000.0 // events/s
	pacedWindow = 32
)

// Slice sizes, in operations (see stats.go): a tenth to a quarter of
// a second of work each, at least a hundred samples where a slice has
// its own p99, and on durable-campus exactly one snapshot period (4096
// events), so every slice holds one snapshot.
const (
	churnRateSlice = 8   // unpaced windows
	pacedSlice     = 125 // paced windows
	requestSlice   = 500
	multihomeSlice = 200
	durableSlice   = 4096 / durableWindow
)

const (
	churnWindow   = 512
	durableWindow = 1024
	// durableKills is the number of SIGKILL/restart cycles in one
	// durable-campus run.
	durableKills = 3
)

func (r *runner) traceCap(perSec float64, window int) int {
	n := int(perSec*r.seconds) / window * window
	return max(n, 4*window)
}

// --- stream-churn ---

func runStreamChurn(ctx context.Context, r *runner) error {
	secA := r.seconds / 2
	windowsB := max(int(pacedRate*(r.seconds-secA))/pacedWindow, 8)
	gen := func() (*engineInputs, error) {
		spec, err := paperSpec(r.seed, 200, 400)
		if err != nil {
			return nil, err
		}
		const active = 300
		n := int(churnCapPerSec*secA)/churnWindow*churnWindow + churnWindow + windowsB*pacedWindow
		events, err := churnTrace(r.seed, spec, active, n, 0)
		if err != nil {
			return nil, err
		}
		return &engineInputs{
			spec: spec, cfg: engine.Config{ActiveUsers: active}, events: events,
			flags: []string{"-shards", "1"}, setupReps: r.pick(15, 1),
			ladderEvents: r.pick(40000, 2000), ladderWindow: churnWindow,
		}, nil
	}
	drive := func(ctx context.Context, r *runner, in *engineInputs, h *host) (*measured, error) {
		limit := len(in.events) - windowsB*pacedWindow
		a, start, acks, err := h.d.streamUnpaced(r.tr, in.enc, 0, limit, churnWindow, time.Now().Add(time.Duration(secA*float64(time.Second))))
		if err != nil {
			return nil, fmt.Errorf("unpaced phase: %w", err)
		}
		b, err := h.d.streamPaced(r.tr, in.enc, a.to, windowsB, pacedWindow, pacedRate)
		if err != nil {
			return nil, fmt.Errorf("paced phase: %w", err)
		}
		r.counts["paced_events"] = b.part.to - b.part.from
		return &measured{
			parts: []part{a, b.part}, events: a.to - a.from, wall: acks[len(acks)-1].Sub(start),
			rates:   sliceRates(start, acks, churnWindow, churnRateSlice),
			p50s:    sliceQuantiles(b.ackMS, pacedSlice, 0.50),
			p90s:    sliceQuantiles(b.ackMS, pacedSlice, 0.90),
			p99s:    sliceQuantiles(b.ackMS, pacedSlice, 0.99),
			samples: len(b.ackMS), lateMS: b.lateMS,
		}, nil
	}
	return runEngine(ctx, r, gen, drive)
}

// --- the campus workloads ---

func (r *runner) campus() campus {
	if r.quick {
		return campus{zones: 16, cols: 4, apsPerZone: 6, usersPerZone: 125, side: 628}
	}
	return campus{zones: 16, cols: 4, apsPerZone: 300, usersPerZone: 6250, side: 4440}
}

func (r *runner) campusInputs(events int, in engineInputs) (*engineInputs, error) {
	c := r.campus()
	rng := seeded(r.seed)
	in.spec = c.spec(rng)
	in.events = c.trace(rng, events)
	in.setupReps = r.pick(7, 1)
	in.ladderEvents = r.pick(40000, 2000)
	return &in, nil
}

func runRequestCampus(ctx context.Context, r *runner) error {
	gen := func() (*engineInputs, error) {
		return r.campusInputs(r.traceCap(requestCapPerSec, 1), engineInputs{
			flags: []string{"-shards", "1"}, oneCPU: true, ladderWindow: durableWindow,
		})
	}
	return runEngine(ctx, r, gen, driveRequests(requestSlice))
}

func runDurableCampus(ctx context.Context, r *runner) error {
	gen := func() (*engineInputs, error) {
		return r.campusInputs(r.traceCap(durableCapPerSec, durableWindow), engineInputs{
			flags: []string{"-shards", "2", "-fsync", "interval"}, durable: true, ladderWindow: durableWindow,
		})
	}
	return runEngine(ctx, r, gen, driveDurable)
}

// driveDurable streams closed-loop, one window in flight, in
// durableKills+1 equal time slices. Between slices the idle daemon is
// SIGKILLed and restarted on the same journal; recovery is timed from
// exec to the moment /v1/assoc again serves the pre-kill association,
// and the stream then resumes its session at the acked offset. The
// recoveries sit inside the measured wall time, so events_per_s is
// goodput across crashes.
func driveDurable(ctx context.Context, r *runner, in *engineInputs, h *host) (*measured, error) {
	m := &measured{checkpoints: map[int]digest{}}
	start := time.Now()
	token, offset := "", 0
	for slice := 0; slice <= durableKills; slice++ {
		deadline := start.Add(r.duration() * time.Duration(slice+1) / (durableKills + 1))
		// Every part ends half a snapshot period past a snapshot, so every
		// recovery restores a snapshot and replays the same 2048 events.
		p, tok, ops, err := h.d.streamClosed(r.tr, in.enc, offset, len(in.events), durableWindow, token, deadline, durableSlice, durableSlice/2)
		if err != nil {
			return nil, fmt.Errorf("slice %d: %w", slice, err)
		}
		m.parts = append(m.parts, p)
		m.addOps(ops[0].sent, ops, durableWindow, durableSlice)
		token, offset = tok, p.to
		if slice == durableKills || offset == len(in.events) {
			break
		}
		want, err := h.d.assocDigest()
		if err != nil {
			return nil, err
		}
		m.checkpoints[offset] = want
		id := r.tr.begin("assocd.kill_recover")
		if err := h.stop(true); err != nil {
			return nil, err
		}
		if err := h.start(); err != nil {
			return nil, fmt.Errorf("restart %d: %w", slice+1, err)
		}
		if _, err := h.d.do("GET", "/healthz", nil); err != nil {
			return nil, err
		}
		got, err := h.d.assocDigest()
		if err != nil {
			return nil, err
		}
		m.recoveries = append(m.recoveries, time.Since(h.d.started).Seconds())
		r.tr.end(id)
		if got != want {
			return nil, fmt.Errorf("restart %d recovered a different association than the one served before the kill", slice+1)
		}
	}
	m.events, m.wall = offset, time.Since(start)
	r.counts["recoveries"] = len(m.recoveries)
	return m, nil
}

// --- multihome-faults ---

func runMultihomeFaults(ctx context.Context, r *runner) error {
	gen := func() (*engineInputs, error) {
		aps, users := r.pick(500, 50), r.pick(1000, 100)
		spec, err := paperSpec(r.seed, aps, users)
		if err != nil {
			return nil, err
		}
		active := users * 3 / 4
		// Mean AP up-time of four trace lengths: about an eighth of the
		// APs fail somewhere in a full trace, a few at any moment.
		events, err := churnTrace(r.seed, spec, active, r.traceCap(multihomeCapPerSec, 1), 4)
		if err != nil {
			return nil, err
		}
		return &engineInputs{
			spec: spec, cfg: engine.Config{ActiveUsers: active, MaxHomes: 2}, events: events,
			flags: []string{"-shards", "1", "-multihome", "2"}, oneCPU: true, setupReps: r.pick(15, 1),
			ladderEvents: r.pick(1500, 200), ladderWindow: churnWindow,
		}, nil
	}
	return runEngine(ctx, r, gen, driveRequests(multihomeSlice))
}
