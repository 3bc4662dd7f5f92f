package engine

import (
	"math/rand"
	"runtime"
	"testing"

	"wlanmcast/internal/core"
	"wlanmcast/internal/geom"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/wlan"
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
// full-recompute baseline. scripts/bench.sh derives BENCH_fault.json
// from the ns/event of this pair. The failed AP is the most loaded
// one under the initial association, so the repair is a worst-ish
// case, not a no-op.
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

// The observability overhead trio. scripts/bench.sh interleaves the
// three and emits BENCH_obs.json with two gated deltas, each <5%:
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
	flight := obs.NewFlightRecorder(obs.DefaultFlightSpans, 2, stageNames, flightKinds)
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
	flight := obs.NewFlightRecorder(obs.DefaultFlightSpans, 2, stageNames, flightKinds)
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

// The BenchmarkEngineShards family measures ApplyBatch throughput
// against the shard count on a 100k-user, 4800-AP campus: 16 dense
// zones in a 4x4 grid, 2 km of dead space between them, so the
// spatial partition yields 16 independent regions spread over the
// shards. The engine and network are built once (outside the timer);
// each iteration replays a 20k-event move/demand trace in fixed-size
// batches. Wall-clock scaling tracks GOMAXPROCS — scripts/bench.sh
// records both so the events/sec-vs-shards curve is interpretable on
// any machine.
const (
	benchShardZones        = 16
	benchShardZoneCols     = 4
	benchShardZoneSide     = 4440.0
	benchShardZonePitch    = benchShardZoneSide + 2000
	benchShardAPsPerZone   = 300
	benchShardUsersPerZone = 6250
	benchShardEvents       = 20000
	benchShardBatch        = 2048
)

func benchShardZonePoint(rng *rand.Rand, z int) geom.Point {
	return geom.Point{
		X: float64(z%benchShardZoneCols)*benchShardZonePitch + 100 + rng.Float64()*benchShardZoneSide,
		Y: float64(z/benchShardZoneCols)*benchShardZonePitch + 100 + rng.Float64()*benchShardZoneSide,
	}
}

func benchShardSetup(b *testing.B) (*wlan.Network, []Event) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	rows := benchShardZones / benchShardZoneCols
	area := geom.Rect{Width: benchShardZoneCols * benchShardZonePitch, Height: float64(rows) * benchShardZonePitch}
	apPos := make([]geom.Point, 0, benchShardZones*benchShardAPsPerZone)
	for z := 0; z < benchShardZones; z++ {
		for i := 0; i < benchShardAPsPerZone; i++ {
			apPos = append(apPos, benchShardZonePoint(rng, z))
		}
	}
	sessions := []wlan.Session{{ID: 0, Rate: 2}, {ID: 1, Rate: 4}, {ID: 2, Rate: 6}, {ID: 3, Rate: 8}}
	nUsers := benchShardZones * benchShardUsersPerZone
	userPos := make([]geom.Point, nUsers)
	userSess := make([]int, nUsers)
	for u := range userPos {
		userPos[u] = benchShardZonePoint(rng, u%benchShardZones)
		userSess[u] = rng.Intn(len(sessions))
	}
	n, err := wlan.NewGeometric(area, apPos, userPos, userSess, sessions, radio.Table1(), wlan.DefaultBudget)
	if err != nil {
		b.Fatal(err)
	}
	// Moves and demand changes only: both stay valid however often the
	// trace replays on the same engine (every user is always active).
	trace := make([]Event, benchShardEvents)
	for i := range trace {
		u := rng.Intn(nUsers)
		if rng.Float64() < 0.8 {
			trace[i] = Event{Kind: UserMove, User: u, Pos: benchShardZonePoint(rng, rng.Intn(benchShardZones))}
		} else {
			trace[i] = Event{Kind: DemandChange, User: u, Session: rng.Intn(len(sessions))}
		}
	}
	return n, trace
}

func benchShardEngine(b *testing.B, shards int) {
	n, trace := benchShardSetup(b)
	e, err := New(n, Config{Objective: core.ObjMLA, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	if e.Shards() != shards {
		b.Fatalf("Shards() = %d, want %d", e.Shards(), shards)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < len(trace); s += benchShardBatch {
			if _, err := e.ApplyBatch(trace[s:min(s+benchShardBatch, len(trace))]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/event")
}

func BenchmarkEngineShards1(b *testing.B) { benchShardEngine(b, 1) }
func BenchmarkEngineShards2(b *testing.B) { benchShardEngine(b, 2) }
func BenchmarkEngineShards4(b *testing.B) { benchShardEngine(b, 4) }
func BenchmarkEngineShards8(b *testing.B) { benchShardEngine(b, 8) }
