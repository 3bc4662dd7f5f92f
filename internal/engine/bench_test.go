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

// The observability overhead pair. Run the two interleaved
// (go test -bench EngineIncrementalObs -count N) and compare:
//
//	trace overhead = Obs vs ObsDisabled  (ring recording path)
//
// Both share one registry, and the disabled variant still allocates
// (and KeepAlives) a same-size ring, so heap size and GC pacing —
// which otherwise dominate the A/B delta — match across the pair.

// BenchmarkEngineIncrementalObs is the assocd configuration: a live
// ring recorder beside the always-on stage histograms.
func BenchmarkEngineIncrementalObs(b *testing.B) {
	reg := obs.NewRegistry()
	ring := obs.NewRing(obs.DefaultRingCapacity)
	benchEngine(b, ModeIncremental, func(cfg *Config) {
		cfg.Obs, cfg.Trace = reg, ring
	})
}

// BenchmarkEngineIncrementalObsDisabled is the floor: the same shared
// registry and a same-size kept-alive ring, but the recorder handed
// to the engine is obs.Disabled (every Record call is skipped at the
// obs.Active guard).
func BenchmarkEngineIncrementalObsDisabled(b *testing.B) {
	reg := obs.NewRegistry()
	ring := obs.NewRing(obs.DefaultRingCapacity)
	benchEngine(b, ModeIncremental, func(cfg *Config) {
		cfg.Obs, cfg.Trace = reg, obs.Disabled
	})
	runtime.KeepAlive(ring)
}
