package engine

import (
	"runtime"
	"testing"

	"wlanmcast/internal/core"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/scenario"
)

// The benchmark pair measures the engine's reason to exist: applying
// the same churn trace with incremental repair vs rerunning the batch
// sequential process after every event. Each iteration replays a full
// trace on a fresh network, so ns/op is the cost of benchEvents
// events end to end; the derived ns/event is the headline number.

const (
	benchAPs    = 50
	benchUsers  = 150
	benchActive = 100
	benchEvents = 200
)

func benchTrace(b *testing.B) (scenario.Params, []Event) {
	b.Helper()
	p := scenario.PaperDefaults()
	p.NumAPs = benchAPs
	p.NumUsers = benchUsers
	p.NumSessions = 4
	p.Seed = 1
	trace, err := GenTrace(TraceParams{
		Seed:          1,
		Events:        benchEvents,
		Area:          p.Area,
		Users:         benchUsers,
		InitialActive: benchActive,
		Sessions:      4,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p, trace
}

func benchEngine(b *testing.B, mode Mode, cfgMod func(*Config)) {
	p, trace := benchTrace(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n, err := scenario.GenerateNetwork(p)
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{Objective: core.ObjMLA, Mode: mode, ActiveUsers: benchActive}
		if cfgMod != nil {
			cfgMod(&cfg)
		}
		e, err := New(n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		applyAll(b, e, trace)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchEvents), "ns/event")
}

func BenchmarkEngineIncremental(b *testing.B)   { benchEngine(b, ModeIncremental, nil) }
func BenchmarkEngineFullRecompute(b *testing.B) { benchEngine(b, ModeFullRecompute, nil) }

// benchFaultRepair measures self-healing latency: one AP failure plus
// its recovery on a steady-state network, incremental repair vs the
// full-recompute baseline, compared by the ns/event of the pair. The
// failed AP is the most loaded one under the initial association, so
// the repair is a worst-ish case, not a no-op.
func benchFaultRepair(b *testing.B, mode Mode) {
	p, _ := benchTrace(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n, err := scenario.GenerateNetwork(p)
		if err != nil {
			b.Fatal(err)
		}
		e, err := New(n, Config{Objective: core.ObjMLA, Mode: mode, ActiveUsers: benchActive})
		if err != nil {
			b.Fatal(err)
		}
		ap, top := 0, -1.0
		for a, l := range e.APLoads() {
			if l > top {
				ap, top = a, l
			}
		}
		b.StartTimer()
		if _, err := e.Apply(Event{Kind: APDown, User: -1, AP: ap}); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Apply(Event{Kind: APUp, User: -1, AP: ap}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2), "ns/event")
}

func BenchmarkEngineFaultRepairIncremental(b *testing.B) {
	benchFaultRepair(b, ModeIncremental)
}

func BenchmarkEngineFaultRepairFullRecompute(b *testing.B) {
	benchFaultRepair(b, ModeFullRecompute)
}

// The observability overhead trio. Run the three interleaved
// (go test -bench EngineIncrementalObs -count N) and compare:
//
//	trace overhead = Obs      vs ObsDisabled  (ring recording path)
//	span overhead  = ObsSpans vs Obs          (flight ring + stage spans)
//
// All three share one registry, and the variants that disable a piece
// still allocate (and KeepAlive) a same-size stand-in, so heap size
// and GC pacing — which otherwise dominate the A/B delta — match
// across the trio.

// BenchmarkEngineIncrementalObs measures the trace path alone: a live
// ring recorder with the per-event span machinery off (FlightSpans <
// 0), plus a kept-alive dummy flight ring for heap parity.
func BenchmarkEngineIncrementalObs(b *testing.B) {
	reg := obs.NewRegistry()
	ring := obs.NewRing(obs.DefaultRingCapacity)
	flight := obs.NewFlightRecorder(obs.DefaultFlightSpans, stageNames, flightKinds)
	benchEngine(b, ModeIncremental, func(cfg *Config) {
		cfg.Obs, cfg.Trace, cfg.FlightSpans = reg, ring, -1
	})
	runtime.KeepAlive(flight)
}

// BenchmarkEngineIncrementalObsDisabled is the floor: the same shared
// registry, a same-size kept-alive ring and flight stand-in, but the
// recorder handed to the engine is obs.Disabled (every Record call is
// skipped at the obs.Active guard) and the span path is off.
func BenchmarkEngineIncrementalObsDisabled(b *testing.B) {
	reg := obs.NewRegistry()
	ring := obs.NewRing(obs.DefaultRingCapacity)
	flight := obs.NewFlightRecorder(obs.DefaultFlightSpans, stageNames, flightKinds)
	benchEngine(b, ModeIncremental, func(cfg *Config) {
		cfg.Obs, cfg.Trace, cfg.FlightSpans = reg, obs.Disabled, -1
	})
	runtime.KeepAlive(ring)
	runtime.KeepAlive(flight)
}

// BenchmarkEngineIncrementalObsSpans is the full assocd -serve
// configuration: live ring trace plus the default flight recorder and
// per-event stage spans.
func BenchmarkEngineIncrementalObsSpans(b *testing.B) {
	reg := obs.NewRegistry()
	ring := obs.NewRing(obs.DefaultRingCapacity)
	benchEngine(b, ModeIncremental, func(cfg *Config) {
		cfg.Obs, cfg.Trace = reg, ring
	})
}
