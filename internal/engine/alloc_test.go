package engine

import (
	"math/rand"
	"testing"

	"wlanmcast/internal/core"
	"wlanmcast/internal/scenario"
)

// The zero-alloc regression gate. The streaming ingest subsystem
// depends on the steady-state per-event path staying allocation-free:
// the tracker's dense rate-occupancy cube, the MoveUser candidate
// scratch, the reused worklist heap, and the closure-free rehome
// dispatch all exist for this property, and check.sh runs
// TestEngineEventAllocGate so it cannot silently rot.

const allocGateWindow = 256

// allocGateSetup builds a steady-state engine plus a replayable
// move/demand trace: neither kind changes the active-user or down-AP
// sets, so the same trace can stream through one long-lived engine
// forever — exactly the shape testing.AllocsPerRun needs, and exactly
// the hot path (rehome, grid re-query, tracker churn, worklist repair)
// the gate is protecting. Joins and leaves ride the same machinery;
// they are exercised by the equivalence suites instead because a
// replayable join/leave cycle cannot stay valid. With maxHomes > 1 the
// trace also takes one AP down every 16 events and brings it back 16
// later (all up again at the end, so it still replays).
func allocGateSetup(tb testing.TB, events, maxHomes int) (*Engine, []Event) {
	tb.Helper()
	p := scenario.PaperDefaults()
	p.NumAPs = benchAPs
	p.NumUsers = benchUsers
	p.NumSessions = 4
	p.Seed = 3
	n, err := scenario.GenerateNetwork(p)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(n, Config{Objective: core.ObjMLA, MaxHomes: maxHomes})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	trace := make([]Event, events)
	for i := range trace {
		u := rng.Intn(benchUsers)
		if rng.Float64() < 0.8 {
			trace[i] = Event{Kind: UserMove, User: u, Pos: randPoint(rng, p.Area)}
		} else {
			trace[i] = Event{Kind: DemandChange, User: u, Session: rng.Intn(4)}
		}
	}
	if maxHomes > 1 {
		down := -1
		for i := 16; i < len(trace); i += 16 {
			if down >= 0 {
				trace[i] = Event{Kind: APUp, User: -1, AP: down}
				down = -1
			} else {
				down = rng.Intn(benchAPs)
				trace[i] = Event{Kind: APDown, User: -1, AP: down}
			}
		}
		if down >= 0 {
			trace = append(trace, Event{Kind: APUp, User: -1, AP: down})
		}
	}
	return e, trace
}

// TestEngineEventAllocGate pins the steady-state allocation cost of
// the incremental event path at <= 2 allocs/event (the streaming
// ingest acceptance bar; the measured value is ~0) in both framings:
// ApplyStream in assocd-sized windows, and one-event Apply calls,
// whose batch of one must add no event slice, overlay map or queue.
// One full replay warms every reusable buffer to its high-water mark,
// then AllocsPerRun measures whole replays.
func TestEngineEventAllocGate(t *testing.T) {
	e, trace := allocGateSetup(t, 2048, 0)
	framings := []struct {
		name   string
		replay func()
	}{
		{"stream", func() {
			for s := 0; s < len(trace); s += allocGateWindow {
				if _, err := e.ApplyStream(trace[s:min(s+allocGateWindow, len(trace))]); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"apply", func() {
			for _, ev := range trace {
				if _, err := e.Apply(ev); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, f := range framings {
		f.replay() // warm the worklist, scratch, and adjacency-row capacities
		perEvent := testing.AllocsPerRun(5, f.replay) / float64(len(trace))
		if perEvent > 2 {
			t.Fatalf("%s: incremental event path allocates %.3f allocs/event, gate is 2", f.name, perEvent)
		}
		t.Logf("%s: steady-state allocations: %.3f allocs/event", f.name, perEvent)
	}
}

// TestEngineMultihomeAllocGate is the gate's MaxHomes=2 twin on the
// request path: one-event Apply calls, each followed by the
// incremental secondary-home derivation, over a trace that also takes
// APs down and back up. The derivation re-derives only what a call
// touched through reused scratch, so it must stay <= 4 allocs/event.
func TestEngineMultihomeAllocGate(t *testing.T) {
	e, trace := allocGateSetup(t, 2048, 2)
	replay := func() {
		for _, ev := range trace {
			if _, err := e.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	replay() // warm the home sets, scratch, and adjacency-row capacities
	if e.MultiSnapshot().SecondaryCount() == 0 {
		t.Fatal("no secondary homes derived; the gate is vacuous")
	}
	perEvent := testing.AllocsPerRun(5, replay) / float64(len(trace))
	if perEvent > 4 {
		t.Fatalf("multi-homed Apply path allocates %.3f allocs/event, gate is 4", perEvent)
	}
	t.Logf("steady-state allocations: %.3f allocs/event", perEvent)
}

// BenchmarkEngineEventAlloc is the measurement twin of the gate: the
// steady-state ns/event and allocs/op of ApplyStream windows on one
// long-lived engine (unlike BenchmarkEngineIncremental, which pays a
// fresh engine's buffer growth every iteration).
func BenchmarkEngineEventAlloc(b *testing.B) {
	e, trace := allocGateSetup(b, 2048, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < len(trace); s += allocGateWindow {
			if _, err := e.ApplyStream(trace[s:min(s+allocGateWindow, len(trace))]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/event")
}
