package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// Zoned scenarios: a few dense AP/user zones separated by 2000 m of
// dead space (10x the radio range), so churn traces constantly move
// users between radio-isolated regions, detaching them on one side and
// re-admitting them on the other.

const (
	zoneSide  = 600.0
	zonePitch = 2600.0 // zoneSide + 2000 m gap
	zoneCols  = 2
)

func zoneOrigin(z int) geom.Point {
	return geom.Point{X: float64(z%zoneCols)*zonePitch + 100, Y: float64(z/zoneCols)*zonePitch + 100}
}

func zonePoint(rng *rand.Rand, z int) geom.Point {
	o := zoneOrigin(z)
	return geom.Point{X: o.X + rng.Float64()*zoneSide, Y: o.Y + rng.Float64()*zoneSide}
}

// zonedSetup builds a fresh zoned network plus a churn trace from one
// seed; calling it twice with the same seed yields identical inputs
// for two engines.
func zonedSetup(t *testing.T, seed int64, zones, apsPerZone, slotsPerZone, events int) (*wlan.Network, []Event, int) {
	t.Helper()
	rows := (zones + zoneCols - 1) / zoneCols
	area := geom.Rect{Width: zoneCols * zonePitch, Height: float64(rows) * zonePitch}
	rng := rand.New(rand.NewSource(seed))
	var apPos []geom.Point
	for z := 0; z < zones; z++ {
		for i := 0; i < apsPerZone; i++ {
			apPos = append(apPos, zonePoint(rng, z))
		}
	}
	sessions := []wlan.Session{{ID: 0, Rate: 2}, {ID: 1, Rate: 4}, {ID: 2, Rate: 6}}
	nUsers := zones * slotsPerZone
	userPos := make([]geom.Point, nUsers)
	userSess := make([]int, nUsers)
	for u := 0; u < nUsers; u++ {
		// Interleave users across zones so the initially-active prefix
		// spans all of them.
		userPos[u] = zonePoint(rng, u%zones)
		userSess[u] = rng.Intn(len(sessions))
	}
	n, err := wlan.NewGeometric(area, apPos, userPos, userSess, sessions, radio.Table1(), wlan.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	initial := nUsers * 3 / 4
	trace, err := GenTrace(TraceParams{
		Seed:          seed,
		Events:        events,
		Area:          area,
		Users:         nUsers,
		InitialActive: initial,
		Sessions:      len(sessions),
	})
	if err != nil {
		t.Fatal(err)
	}
	// GenTrace scatters positions over the whole area, which is mostly
	// dead space here; pull most of them into zones so joins land on
	// APs and moves cross between zones often.
	prng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range trace {
		if trace[i].Kind != UserJoin && trace[i].Kind != UserMove {
			continue
		}
		if prng.Float64() < 0.85 {
			trace[i].Pos = zonePoint(prng, prng.Intn(zones))
		}
	}
	return n, injectAPEvents(trace, len(apPos), 40, seed), initial
}

// injectAPEvents interleaves a valid ap_down/ap_up toggle every
// `every` events, tracking the down set so the stream stays valid.
func injectAPEvents(events []Event, numAPs, every int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed ^ 0xa9))
	down := make(map[int]bool)
	out := make([]Event, 0, len(events)+len(events)/every)
	for i, ev := range events {
		if i > 0 && i%every == 0 {
			ap := rng.Intn(numAPs)
			kind := APDown
			if down[ap] {
				kind = APUp
			}
			down[ap] = !down[ap]
			out = append(out, Event{Kind: kind, User: -1, AP: ap})
		}
		out = append(out, ev)
	}
	return out
}

// compareEngines asserts the externally observable association state
// of the two engines is identical — byte-identical snapshot JSON and
// bit-identical load floats, per the determinism invariant.
func compareEngines(t *testing.T, ref, e *Engine, ctx string) {
	t.Helper()
	refSnap, err := json.Marshal(ref.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refSnap, snap) {
		t.Fatalf("%s: snapshots differ\nreference: %s\nbatch:     %s", ctx, refSnap, snap)
	}
	if a, b := ref.TotalLoad(), e.TotalLoad(); a != b {
		t.Fatalf("%s: TotalLoad %v (reference) != %v (batch)", ctx, a, b)
	}
	if a, b := ref.MaxLoad(), e.MaxLoad(); a != b {
		t.Fatalf("%s: MaxLoad %v (reference) != %v (batch)", ctx, a, b)
	}
	refL, l := ref.APLoads(), e.APLoads()
	for a := range refL {
		if refL[a] != l[a] {
			t.Fatalf("%s: AP %d load %v (reference) != %v (batch)", ctx, a, refL[a], l[a])
		}
	}
	if a, b := ref.ActiveUsers(), e.ActiveUsers(); a != b {
		t.Fatalf("%s: ActiveUsers %d (reference) != %d (batch)", ctx, a, b)
	}
}

// compareStats asserts the cumulative counters match; the latency
// histogram measures wall-clock time, so only its sample count must
// agree.
func compareStats(t *testing.T, ref, e *Engine, ctx string) {
	t.Helper()
	a, b := ref.Stats(), e.Stats()
	if a.Latency.Count != b.Latency.Count {
		t.Fatalf("%s: latency samples %d (reference) != %d (batch)", ctx, a.Latency.Count, b.Latency.Count)
	}
	a.Latency, b.Latency = obs.HistogramSnapshot{}, obs.HistogramSnapshot{}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: stats differ\nreference: %+v\nbatch:     %+v", ctx, a, b)
	}
}

// TestEngineShardDifferential is the batch pipeline's core guarantee:
// over 26 seeded zoned scenarios, applying the same churn trace event
// by event and in ApplyBatch chunks produces byte-identical snapshots,
// bit-identical loads, and equal stats at every batch boundary.
func TestEngineShardDifferential(t *testing.T) {
	runDifferential(t, (*Engine).ApplyBatch, nil)
}

// TestEngineStreamDifferential runs the same 26-seed suite against
// ApplyStream — the streaming-ingest entry point must preserve the
// byte-identical-snapshot invariant.
func TestEngineStreamDifferential(t *testing.T) {
	runDifferential(t, (*Engine).ApplyStream, nil)
}

// TestEngineShardsIgnored pins Config.Shards as an accepted no-op: one
// zoned trace applied through ApplyBatch at every Shards value yields
// the same persisted snapshot bytes, loads, Stats (latency included,
// under an injected clock) and metrics exposition, and no call leaves
// a goroutine behind.
func TestEngineShardsIgnored(t *testing.T) {
	type outcome struct {
		snap  []byte
		loads []float64
		stats Stats
		prom  string
	}
	run := func(shards int) outcome {
		n, trace, initial := zonedSetup(t, 21, 4, 12, 40, 240)
		var tick atomic.Int64
		now := func() time.Time { return time.Unix(0, tick.Add(1000)) }
		e := newEngine(t, n, Config{ActiveUsers: initial, Shards: shards, Now: now})
		for start := 0; start < len(trace); start += 16 {
			if _, err := e.ApplyBatch(trace[start:min(start+16, len(trace))]); err != nil {
				t.Fatalf("shards=%d batch at %d: %v", shards, start, err)
			}
			if g := engineGoroutine(); g != "" {
				t.Fatalf("shards=%d batch at %d left an engine goroutine running:\n%s", shards, start, g)
			}
		}
		snap, err := e.EncodeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		var prom bytes.Buffer
		if err := e.Registry().WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		return outcome{snap: snap, loads: e.APLoads(), stats: e.Stats(), prom: prom.String()}
	}
	ref := run(0)
	for _, shards := range []int{1, 2, 8} {
		got := run(shards)
		if !bytes.Equal(got.snap, ref.snap) {
			t.Errorf("shards=%d: snapshot bytes differ from shards=0", shards)
		}
		if !reflect.DeepEqual(got.loads, ref.loads) {
			t.Errorf("shards=%d: AP loads differ from shards=0", shards)
		}
		if !reflect.DeepEqual(got.stats, ref.stats) {
			t.Errorf("shards=%d: stats differ\ngot:  %+v\nwant: %+v", shards, got.stats, ref.stats)
		}
		if got.prom != ref.prom {
			t.Errorf("shards=%d: metrics exposition differs from shards=0", shards)
		}
	}
}

// engineGoroutine returns the stack of a live goroutine that this
// package's code started, or "" if there is none. It reads creators,
// not a goroutine count, so runtime and test-harness goroutines do not
// matter.
func engineGoroutine() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by wlanmcast/internal/engine") {
			return g
		}
	}
	return ""
}

// applyEach applies events one Apply call at a time, stopping at the
// first error, and totals the results the way ApplyBatch does.
func applyEach(e *Engine, events []Event) (BatchResult, error) {
	var br BatchResult
	for _, ev := range events {
		res, err := e.Apply(ev)
		if err != nil {
			return br, err
		}
		br.Applied++
		br.Redecisions += res.Redecisions
		br.Moves += res.Moves
		br.Orphaned += res.Orphaned
		if res.Truncated {
			br.Truncated++
		}
	}
	return br, nil
}

// runDifferential replays 26 seeded zoned scenarios on an event-by-
// event reference and on a batch engine driven through apply,
// comparing state and totals at every chunk boundary. cfgMod (may be
// nil) adjusts both engines' configs — the instrumented variant of
// the suite turns every observability knob on through it.
func runDifferential(t *testing.T, apply func(*Engine, []Event) (BatchResult, error), cfgMod func(*Config)) {
	const chunk = 16
	for seed := int64(1); seed <= 26; seed++ {
		n1, trace, initial := zonedSetup(t, seed, 4, 12, 40, 240)
		refCfg := Config{ActiveUsers: initial}
		cfg := Config{ActiveUsers: initial}
		if cfgMod != nil {
			cfgMod(&refCfg)
			cfgMod(&cfg)
		}
		ref := newEngine(t, n1, refCfg)
		n2, _, _ := zonedSetup(t, seed, 4, 12, 40, 240)
		e := newEngine(t, n2, cfg)
		compareEngines(t, ref, e, "seed init")

		for start := 0; start < len(trace); start += chunk {
			batch := trace[start:min(start+chunk, len(trace))]
			// The reference applies event by event — the original
			// engine's granularity.
			rbr, err := applyEach(ref, batch)
			if err != nil {
				t.Fatalf("seed %d: reference apply: %v", seed, err)
			}
			br, err := apply(e, batch)
			if err != nil {
				t.Fatalf("seed %d: batch at %d: %v", seed, start, err)
			}
			if br != rbr {
				t.Fatalf("seed %d batch at %d: result %+v (batch) != %+v (reference)", seed, start, br, rbr)
			}
			if br.Truncated != 0 {
				t.Fatalf("seed %d batch at %d: unexpected truncation (%d)", seed, start, br.Truncated)
			}
			compareEngines(t, ref, e, "seed batch")
		}
		compareStats(t, ref, e, "seed end")
		if err := e.Network().Validate(e.Snapshot(), false); err != nil {
			t.Fatalf("seed %d: final batch association invalid: %v", seed, err)
		}
	}
}

// rejectionFraming is one way of feeding a batch to the engine.
type rejectionFraming struct {
	name  string
	apply func(*Engine, []Event) (BatchResult, error)
}

// TestEngineShardRejectionParity pins batch rejection semantics for
// the one-event Apply loop and ApplyBatch; see runRejectionParity.
func TestEngineShardRejectionParity(t *testing.T) {
	runRejectionParity(t, []rejectionFraming{
		{"apply", applyEach},
		{"batch", (*Engine).ApplyBatch},
	})
}

// TestEngineStreamRejectionParity pins ApplyStream's rejection
// contract; see runRejectionParity.
func TestEngineStreamRejectionParity(t *testing.T) {
	runRejectionParity(t, []rejectionFraming{{"stream", (*Engine).ApplyStream}})
}

// runRejectionParity checks each framing: it applies the valid
// prefix, rejects the same event with the same typed error, and leaves
// the tail untouched — same Applied, partial totals, state and Stats
// as a one-event Apply loop, which validates every event against live
// state.
func runRejectionParity(t *testing.T, framings []rejectionFraming) {
	t.Helper()
	n1, trace, initial := zonedSetup(t, 99, 4, 12, 40, 60)
	// A join of an already-active user is invalid; everything after it
	// must not apply, even though it looks valid.
	batch := append([]Event{}, trace[:10]...)
	batch = append(batch, Event{Kind: UserJoin, User: 0, Pos: zoneOrigin(0), Session: 0})
	batch = append(batch, trace[10:20]...)

	ref := newEngine(t, n1, Config{ActiveUsers: initial})
	rbr, rerr := applyEach(ref, batch)
	var inv *InvalidEventError
	if !errors.As(rerr, &inv) || rbr.Applied != 10 {
		t.Fatalf("reference: Applied = %d, err %v; want 10 and an InvalidEventError", rbr.Applied, rerr)
	}
	for _, f := range framings {
		n2, _, _ := zonedSetup(t, 99, 4, 12, 40, 60)
		e := newEngine(t, n2, Config{ActiveUsers: initial})
		br, err := f.apply(e, batch)
		if !errors.As(err, &inv) || err.Error() != rerr.Error() {
			t.Fatalf("%s: error %v, want %v", f.name, err, rerr)
		}
		if br != rbr {
			t.Fatalf("%s: partial result %+v, want %+v", f.name, br, rbr)
		}
		compareEngines(t, ref, e, f.name)
		compareStats(t, ref, e, f.name)
	}
}

// twoRegionNetwork builds a minimal two-region network: AP 0 at
// (100,100), AP 1 at (1100,100) (1000 m apart, out of each other's
// users' range), one user per AP plus a third roaming user starting at
// AP 0.
func twoRegionNetwork(t *testing.T) *wlan.Network {
	t.Helper()
	area := geom.Rect{Width: 1400, Height: 400}
	apPos := []geom.Point{{X: 100, Y: 100}, {X: 1100, Y: 100}}
	userPos := []geom.Point{{X: 120, Y: 100}, {X: 1080, Y: 100}, {X: 100, Y: 120}}
	sessions := []wlan.Session{{ID: 0, Rate: 2}}
	n, err := wlan.NewGeometric(area, apPos, userPos, []int{0, 0, 0}, sessions, radio.Table1(), wlan.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEngineShardHandoffVsAPDown pins the move-vs-fault ordering: a
// move into the other region and a failure of the destination AP in
// the same batch must resolve identically to the one-event Apply
// loop, in both orders.
func TestEngineShardHandoffVsAPDown(t *testing.T) {
	move := Event{Kind: UserMove, User: 2, Pos: geom.Point{X: 1100, Y: 120}}
	down := Event{Kind: APDown, User: -1, AP: 1}
	cases := []struct {
		name  string
		batch []Event
	}{
		{"move-then-down", []Event{move, down}},
		{"down-then-move", []Event{down, move}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := newEngine(t, twoRegionNetwork(t), Config{})
			e := newEngine(t, twoRegionNetwork(t), Config{})
			if ref.Snapshot().APOf(2) != 0 {
				t.Fatal("roaming user 2 did not start on AP 0")
			}
			rbr, err := applyEach(ref, tc.batch)
			if err != nil {
				t.Fatalf("apply loop: %v", err)
			}
			br, err := e.ApplyBatch(tc.batch)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			if br != rbr {
				t.Fatalf("result %+v (batch) != %+v (apply loop)", br, rbr)
			}
			// Either order strands user 2: the destination AP is down by
			// the end and nothing else covers (1100,120).
			if got := e.Snapshot().APOf(2); got != wlan.Unassociated {
				t.Fatalf("user 2 on AP %d, want unassociated", got)
			}
			compareEngines(t, ref, e, tc.name)
			compareStats(t, ref, e, tc.name)
		})
	}
}

// TestEngineInternalErrorStopsBatch pins the internal-error contract:
// an event that fails while applying (here a tracker that no longer
// matches the network, which only a broken engine invariant produces)
// stops the batch at that event — Applied is its index, the error is
// the raw internal one rather than a rejection, the events before it
// stay applied and counted, and the events after it never run.
func TestEngineInternalErrorStopsBatch(t *testing.T) {
	e := newEngine(t, twoRegionNetwork(t), Config{})
	if e.Snapshot().APOf(0) != 0 {
		t.Fatal("user 0 did not start on AP 0")
	}
	// Cut user 0's links behind the tracker's back: its leave passes
	// validation but the tracker cannot disassociate it.
	if err := e.n.DetachUser(0); err != nil {
		t.Fatal(err)
	}
	tail := geom.Point{X: 110, Y: 100}
	batch := []Event{
		{Kind: UserMove, User: 1, Pos: geom.Point{X: 1090, Y: 100}},
		{Kind: UserLeave, User: 0},
		{Kind: UserMove, User: 2, Pos: tail},
	}
	br, err := e.ApplyBatch(batch)
	var inv *InvalidEventError
	if err == nil || errors.As(err, &inv) {
		t.Fatalf("error %v, want an internal (non-validation) error", err)
	}
	if br.Applied != 1 {
		t.Fatalf("Applied = %d, want 1 (the failing event's index)", br.Applied)
	}
	st := e.Stats()
	if st.UserMoves != 1 || st.Leaves != 0 || st.Rejected != 0 {
		t.Fatalf("stats %+v, want 1 move, 0 leaves, 0 rejected", st)
	}
	if e.n.Users[1].Pos.X != 1090 {
		t.Fatalf("event 0 not applied: user 1 at %+v", e.n.Users[1].Pos)
	}
	if e.n.Users[2].Pos == tail {
		t.Fatal("event 2 ran after the internal error")
	}
}
