package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"wlanmcast/internal/core"
	"wlanmcast/internal/fault"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/wlan"
)

// buildSnapNet regenerates the identical network a scenario seed
// produces — the recovery contract: layout comes from the scenario,
// mutable state from the snapshot.
func buildSnapNet(t testing.TB, seed int64, aps, users, sessions int) *wlan.Network {
	t.Helper()
	p := scenario.PaperDefaults()
	p.NumAPs = aps
	p.NumUsers = users
	p.NumSessions = sessions
	p.Seed = seed
	n, err := scenario.GenerateNetwork(p)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// statsSansLatency strips the wall-clock histogram so deterministic
// fields compare exactly (snapCounters is comparable; Stats is not).
func statsSansLatency(s Stats) snapCounters { return s.counters() }

// encodeSnapshotJSON writes e's state as a version-2 JSON snapshot,
// the encoding EncodeSnapshot wrote before version 3. RestoreSnapshot
// still reads it; the tests use it to pin that compatibility.
func encodeSnapshotJSON(e *Engine) ([]byte, error) {
	st := snapState{Version: 2}
	geometric := e.n.Geometric()
	for u := 0; u < e.n.NumUsers(); u++ {
		if !e.active[u] {
			continue
		}
		su := snapUser{U: u, Session: e.n.Users[u].Session, AP: e.tr.APOf(u), Sec: e.secondaryOf(u)}
		if geometric {
			su.X, su.Y = e.n.Users[u].Pos.X, e.n.Users[u].Pos.Y
		}
		st.Users = append(st.Users, su)
	}
	st.DownAPs = e.n.DownAPs()
	st.Stats = statsSansLatency(e.Stats())
	return json.Marshal(st)
}

// TestSnapshotRestoreEquivalence is the determinism proof behind
// crash recovery: split a trace at an arbitrary point, snapshot
// engine A there, restore engine B from the bytes onto a fresh
// network, then drive both through the identical remainder — every
// association snapshot, load vector, and counter must match exactly,
// including when the two sides set different (ignored) Shards values.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	p := scenario.PaperDefaults()
	for _, tc := range []struct {
		seed             int64
		shardsA, shardsB int
		faults           bool
	}{
		{seed: 1, shardsA: 1, shardsB: 1},
		{seed: 2, shardsA: 4, shardsB: 4},
		{seed: 3, shardsA: 1, shardsB: 4, faults: true},
		{seed: 4, shardsA: 4, shardsB: 1, faults: true},
		{seed: 5, shardsA: 3, shardsB: 2},
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed%d_s%dv%d", tc.seed, tc.shardsA, tc.shardsB), func(t *testing.T) {
			const aps, users, sessions, initial, events = 16, 60, 3, 40, 400
			trace, err := GenTrace(TraceParams{
				Seed: tc.seed, Events: events, Area: p.Area,
				Users: users, InitialActive: initial, Sessions: sessions,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.faults {
				sched, err := fault.Gen(fault.Params{Seed: tc.seed, APs: aps, Horizon: events, MTBF: events / 4, MTTR: events / 8})
				if err != nil {
					t.Fatal(err)
				}
				trace = MergeFaults(trace, sched)
			}
			cfg := Config{Objective: core.ObjMLA, ActiveUsers: initial}
			cfgA, cfgB := cfg, cfg
			cfgA.Shards = tc.shardsA
			cfgB.Shards = tc.shardsB

			a := newEngine(t, buildSnapNet(t, tc.seed, aps, users, sessions), cfgA)
			split := len(trace) / 2
			applyIgnoringRejects := func(e *Engine, evs []Event) {
				for _, ev := range evs {
					_, _ = e.Apply(ev) // rejects are part of the deterministic record
				}
			}
			applyIgnoringRejects(a, trace[:split])

			blob, err := a.EncodeSnapshot()
			if err != nil {
				t.Fatalf("EncodeSnapshot: %v", err)
			}
			blob2, err := a.EncodeSnapshot()
			if err != nil || !bytes.Equal(blob, blob2) {
				t.Fatalf("EncodeSnapshot is not deterministic")
			}

			b, err := RestoreSnapshot(buildSnapNet(t, tc.seed, aps, users, sessions), cfgB, blob)
			if err != nil {
				t.Fatalf("RestoreSnapshot: %v", err)
			}

			// Immediately after restore: identical observable state.
			compareSnapEngines(t, "post-restore", a, b)

			// And the futures must not diverge either.
			applyIgnoringRejects(a, trace[split:])
			applyIgnoringRejects(b, trace[split:])
			compareSnapEngines(t, "post-remainder", a, b)
		})
	}
}

func compareSnapEngines(t *testing.T, at string, a, b *Engine) {
	t.Helper()
	sa, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("%s: association snapshots differ\n a: %s\n b: %s", at, sa, sb)
	}
	la, lb := a.APLoads(), b.APLoads()
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("%s: AP %d load %v vs %v", at, i, la[i], lb[i])
		}
	}
	if a.ActiveUsers() != b.ActiveUsers() {
		t.Fatalf("%s: active users %d vs %d", at, a.ActiveUsers(), b.ActiveUsers())
	}
	if ga, gb := statsSansLatency(a.Stats()), statsSansLatency(b.Stats()); ga != gb {
		t.Fatalf("%s: stats differ\n a: %+v\n b: %+v", at, ga, gb)
	}
	if a.TotalLoad() != b.TotalLoad() || a.MaxLoad() != b.MaxLoad() {
		t.Fatalf("%s: load summaries differ", at)
	}
}

func TestRestoreSnapshotRejectsGarbage(t *testing.T) {
	n := buildSnapNet(t, 1, 8, 20, 2)
	cfg := Config{Objective: core.ObjMLA}
	if _, err := RestoreSnapshot(n, cfg, []byte("not json")); err == nil {
		t.Fatal("restored from non-JSON")
	}
	if _, err := RestoreSnapshot(buildSnapNet(t, 1, 8, 20, 2), cfg, []byte(`{"version":99}`)); err == nil {
		t.Fatal("restored from unknown version")
	}
	// Out-of-range user and AP ids must be rejected, not crash.
	for _, blob := range []string{
		`{"version":1,"users":[{"u":999,"session":0,"ap":-1}]}`,
		`{"version":1,"users":[{"u":1,"session":0,"ap":500}]}`,
		`{"version":1,"users":[{"u":3,"session":0,"ap":-1},{"u":3,"session":0,"ap":-1}]}`,
	} {
		if _, err := RestoreSnapshot(buildSnapNet(t, 1, 8, 20, 2), cfg, []byte(blob)); err == nil {
			t.Fatalf("restored from invalid snapshot %s", blob)
		}
	}
}

func TestRestoreSnapshotContinuesStats(t *testing.T) {
	n := buildSnapNet(t, 9, 12, 30, 3)
	e := newEngine(t, n, Config{Objective: core.ObjMLA, ActiveUsers: 20})
	trace, err := GenTrace(TraceParams{Seed: 9, Events: 100, Area: scenario.PaperDefaults().Area, Users: 30, InitialActive: 20, Sessions: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range trace {
		_, _ = e.Apply(ev)
	}
	before := statsSansLatency(e.Stats())
	if before.Joins+before.Leaves+before.UserMoves+before.DemandChanges == 0 {
		t.Fatal("trace applied no events")
	}
	blob, err := e.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSnapshot(buildSnapNet(t, 9, 12, 30, 3), Config{Objective: core.ObjMLA, ActiveUsers: 20}, blob)
	if err != nil {
		t.Fatal(err)
	}
	if after := statsSansLatency(r.Stats()); after != before {
		t.Fatalf("restored stats %+v, want %+v", after, before)
	}
}

// TestRestoreSnapshotVersion1 pins backward compatibility: a version-1
// blob, which also carried per-AP float loads (here nudged by an ulp,
// as a float accumulation history leaves them), restores to the same
// state as the version-2 blob of the same engine, and both continue
// identically.
func TestRestoreSnapshotVersion1(t *testing.T) {
	const seed, aps, users, sessions, initial = 6, 12, 40, 3, 25
	trace, err := GenTrace(TraceParams{Seed: seed, Events: 200, Area: scenario.PaperDefaults().Area,
		Users: users, InitialActive: initial, Sessions: sessions})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Objective: core.ObjMLA, ActiveUsers: initial, Shards: 2}
	e := newEngine(t, buildSnapNet(t, seed, aps, users, sessions), cfg)
	for _, ev := range trace[:100] {
		_, _ = e.Apply(ev)
	}
	v2, err := encodeSnapshotJSON(e)
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.Unmarshal(v2, &st); err != nil {
		t.Fatal(err)
	}
	if st["version"] != float64(2) {
		t.Fatalf("encoded version %v, want 2", st["version"])
	}
	loads := e.APLoads()
	for i, l := range loads {
		loads[i] = math.Nextafter(l, 1)
	}
	st["version"], st["loads"] = 1, loads
	v1, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	restore := func(blob []byte) *Engine {
		r, err := RestoreSnapshot(buildSnapNet(t, seed, aps, users, sessions), cfg, blob)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	b1, b2 := restore(v1), restore(v2)
	compareSnapEngines(t, "post-restore", b1, b2)
	compareSnapEngines(t, "post-restore vs original", b1, e)
	for _, r := range []*Engine{b1, b2} {
		for _, ev := range trace[100:] {
			_, _ = r.Apply(ev)
		}
	}
	compareSnapEngines(t, "post-remainder", b1, b2)
	r1, err := b1.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b2.EncodeSnapshot()
	if err != nil || !bytes.Equal(r1, r2) {
		t.Fatalf("re-encoded snapshots differ (err %v)", err)
	}
}

// Shape of snapCase's network and trace.
const snapSeed, snapAPs, snapUsers, snapInitial, snapSessions, snapEvents = 41, 10, 40, 25, 3, 120

// snapNet regenerates snapCase's fresh network, the one a restore
// rebuilds onto.
func snapNet(tb testing.TB) *wlan.Network {
	return buildSnapNet(tb, snapSeed, snapAPs, snapUsers, snapSessions)
}

// snapCase builds a geometric engine partway through a churn trace
// with AP failures and then takes one more AP down, so its snapshot
// carries down APs (and, at maxHomes 2, secondary homes).
func snapCase(tb testing.TB, maxHomes int) (*Engine, Config) {
	tb.Helper()
	cfg := Config{Objective: core.ObjMLA, ActiveUsers: snapInitial, MaxHomes: maxHomes}
	n := snapNet(tb)
	trace, err := GenTrace(TraceParams{Seed: snapSeed, Events: snapEvents, Area: scenario.PaperDefaults().Area,
		Users: snapUsers, InitialActive: snapInitial, Sessions: snapSessions})
	if err != nil {
		tb.Fatal(err)
	}
	sched, err := fault.Gen(fault.Params{Seed: 606, APs: snapAPs, Horizon: trace[len(trace)-1].At, MTBF: 20, MTTR: 8})
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(n, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	merged := MergeFaults(trace, sched)
	for _, ev := range merged[:len(merged)/2] {
		_, _ = e.Apply(ev)
	}
	for a := 0; a < snapAPs; a++ {
		if !n.APDown(a) {
			if _, err := e.Apply(Event{Kind: APDown, User: -1, AP: a}); err != nil {
				tb.Fatal(err)
			}
			break
		}
	}
	if len(n.DownAPs()) == 0 {
		tb.Fatal("no AP down at the snapshot point")
	}
	if maxHomes > 1 && e.MultiSnapshot().SecondaryCount() == 0 {
		tb.Fatal("no secondary homes at the snapshot point")
	}
	return e, cfg
}

// TestSnapshotJSONAndBinaryRestoreAlike pins that the JSON reader and
// the version-3 reader feed one restore: the version-2 JSON blob and
// the version-3 blob of the same engine restore to engines with the
// same version-3 bytes, loads, stats and multi-association.
func TestSnapshotJSONAndBinaryRestoreAlike(t *testing.T) {
	for _, maxHomes := range []int{1, 2} {
		t.Run(fmt.Sprintf("maxhomes%d", maxHomes), func(t *testing.T) {
			e, cfg := snapCase(t, maxHomes)
			v3, err := e.EncodeSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			v2, err := encodeSnapshotJSON(e)
			if err != nil {
				t.Fatal(err)
			}
			if v3[0] == '{' || v2[0] != '{' {
				t.Fatalf("encodings start %q and %q", v3[:1], v2[:1])
			}
			var restored [2]*Engine
			for i, blob := range [][]byte{v2, v3} {
				if restored[i], err = RestoreSnapshot(snapNet(t), cfg, blob); err != nil {
					t.Fatalf("restore %d: %v", i, err)
				}
			}
			for i, r := range restored {
				if got := mustEncode(t, r); !bytes.Equal(got, v3) {
					t.Fatalf("restore %d re-encodes to different version-3 bytes", i)
				}
				compareSnapEngines(t, fmt.Sprintf("restore %d", i), e, r)
				if got, want := mustJSON(t, r.MultiSnapshot()), mustJSON(t, e.MultiSnapshot()); !bytes.Equal(got, want) {
					t.Fatalf("restore %d: multi-association differs:\n%s\n%s", i, got, want)
				}
			}
		})
	}
}

// TestSnapshotEncodingGate is the host-independent regression gate on
// the snapshot encoder: a geometric engine's version-3 blob stays
// within 24 bytes per active user, and EncodeSnapshot allocates the
// same number of times (its result) however many users it encodes.
func TestSnapshotEncodingGate(t *testing.T) {
	build := func(users, maxHomes int) *Engine {
		p := scenario.PaperDefaults()
		p.NumAPs, p.NumUsers, p.NumSessions, p.Seed = 100, users, 4, 7
		n, err := scenario.GenerateNetwork(p)
		if err != nil {
			t.Fatal(err)
		}
		return newEngine(t, n, Config{Objective: core.ObjMLA, MaxHomes: maxHomes})
	}
	for _, maxHomes := range []int{1, 2} {
		small, large := build(500, maxHomes), build(2000, maxHomes)
		blob := mustEncode(t, large)
		per := float64(len(blob)) / float64(large.ActiveUsers())
		t.Logf("MaxHomes %d: %d bytes, %.2f B per active user", maxHomes, len(blob), per)
		if per > 24 {
			t.Errorf("MaxHomes %d: %d-byte snapshot is %.1f B per active user, want <= 24", maxHomes, len(blob), per)
		}
		allocs := func(e *Engine) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := e.EncodeSnapshot(); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := allocs(small), allocs(large)
		t.Logf("MaxHomes %d: %v allocations per encode", maxHomes, a)
		if a != b {
			t.Errorf("MaxHomes %d: EncodeSnapshot allocates %v times at 500 users, %v at 2000", maxHomes, a, b)
		}
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes to RestoreSnapshot on a
// small multi-homed network: it must never panic, never accept a blob
// with a byte appended, and every version-3 blob it accepts must
// re-encode to exactly its own bytes.
func FuzzRestoreSnapshot(f *testing.F) {
	e, cfg := snapCase(f, 2)
	v3, err := e.EncodeSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	v2, err := encodeSnapshotJSON(e)
	if err != nil {
		f.Fatal(err)
	}
	for _, blob := range [][]byte{v3, v2} {
		f.Add(blob)
		for _, cut := range []int{1, 5, len(blob) / 2, len(blob) - 1} {
			f.Add(blob[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := RestoreSnapshot(snapNet(t), cfg, data)
		if err != nil {
			return
		}
		if _, err := RestoreSnapshot(snapNet(t), cfg, append(data[:len(data):len(data)], ' ')); err == nil {
			t.Fatalf("accepted %q with a trailing byte", data)
		}
		got := mustEncode(t, r)
		if data[0] != '{' && !bytes.Equal(got, data) {
			t.Fatalf("accepted blob re-encodes differently:\n in  %x\n out %x", data, got)
		}
	})
}
