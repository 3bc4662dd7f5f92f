package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// Zoned scenarios: a few dense AP/user zones separated by 2000 m of
// dead space (10x the radio range), so the spatial partition yields
// several independent regions and churn traces constantly move users
// between them — the worst case for the cross-shard handoff protocol.

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
// for the serial and sharded engines.
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
	// APs and moves cross shard boundaries often.
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
func compareEngines(t *testing.T, ref, sh *Engine, ctx string) {
	t.Helper()
	refSnap, err := json.Marshal(ref.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	shSnap, err := json.Marshal(sh.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refSnap, shSnap) {
		t.Fatalf("%s: snapshots differ\nserial:  %s\nsharded: %s", ctx, refSnap, shSnap)
	}
	if a, b := ref.TotalLoad(), sh.TotalLoad(); a != b {
		t.Fatalf("%s: TotalLoad %v (serial) != %v (sharded)", ctx, a, b)
	}
	if a, b := ref.MaxLoad(), sh.MaxLoad(); a != b {
		t.Fatalf("%s: MaxLoad %v (serial) != %v (sharded)", ctx, a, b)
	}
	refL, shL := ref.APLoads(), sh.APLoads()
	for a := range refL {
		if refL[a] != shL[a] {
			t.Fatalf("%s: AP %d load %v (serial) != %v (sharded)", ctx, a, refL[a], shL[a])
		}
	}
	if a, b := ref.ActiveUsers(), sh.ActiveUsers(); a != b {
		t.Fatalf("%s: ActiveUsers %d (serial) != %d (sharded)", ctx, a, b)
	}
}

// compareStats asserts the cumulative counters match; the latency
// histogram's distribution is the one documented divergence (each
// side of a split move times only its half), so only its sample count
// must agree.
func compareStats(t *testing.T, ref, sh *Engine, ctx string) {
	t.Helper()
	a, b := ref.Stats(), sh.Stats()
	if a.Latency.Count != b.Latency.Count {
		t.Fatalf("%s: latency samples %d (serial) != %d (sharded)", ctx, a.Latency.Count, b.Latency.Count)
	}
	a.Latency, b.Latency = obs.HistogramSnapshot{}, obs.HistogramSnapshot{}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: stats differ\nserial:  %+v\nsharded: %+v", ctx, a, b)
	}
}

// TestEngineShardDifferential is the sharded engine's core guarantee:
// over 26 seeded zoned scenarios, applying the same churn trace with
// Shards=1 (event by event) and Shards=N (in batches, including the
// single-queue N=1) produces byte-identical snapshots, bit-identical
// loads, and equal stats at every batch boundary.
func TestEngineShardDifferential(t *testing.T) {
	runDifferential(t, []int{1, 2, 3, 8}, (*Engine).ApplyBatch, nil)
}

// TestEngineStreamDifferential runs the same 26-seed suite against
// ApplyStream — the streaming-ingest entry point must preserve the
// byte-identical-snapshot invariant for any shard count.
func TestEngineStreamDifferential(t *testing.T) {
	runDifferential(t, []int{1, 2, 8}, (*Engine).ApplyStream, nil)
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
// event serial reference and on a batch engine driven through apply,
// comparing state and totals at every chunk boundary. cfgMod (may be
// nil) adjusts both engines' configs — the instrumented variant of
// the suite turns every observability knob on through it.
func runDifferential(t *testing.T, shardCounts []int, apply func(*Engine, []Event) (BatchResult, error), cfgMod func(*Config)) {
	const chunk = 16
	for seed := int64(1); seed <= 26; seed++ {
		shards := shardCounts[int(seed)%len(shardCounts)]
		n1, trace, initial := zonedSetup(t, seed, 4, 12, 40, 240)
		refCfg := Config{ActiveUsers: initial}
		shCfg := Config{ActiveUsers: initial, Shards: shards}
		if cfgMod != nil {
			cfgMod(&refCfg)
			cfgMod(&shCfg)
		}
		ref := newEngine(t, n1, refCfg)
		n2, _, _ := zonedSetup(t, seed, 4, 12, 40, 240)
		sh := newEngine(t, n2, shCfg)
		if got := sh.Shards(); got != shards {
			t.Fatalf("seed %d: Shards() = %d, want %d", seed, got, shards)
		}
		compareEngines(t, ref, sh, "seed init")

		for start := 0; start < len(trace); start += chunk {
			batch := trace[start:min(start+chunk, len(trace))]
			// The serial reference applies event by event — the
			// original engine's granularity.
			rbr, err := applyEach(ref, batch)
			if err != nil {
				t.Fatalf("seed %d: serial apply: %v", seed, err)
			}
			br, err := apply(sh, batch)
			if err != nil {
				t.Fatalf("seed %d: sharded batch at %d: %v", seed, start, err)
			}
			if br != rbr {
				t.Fatalf("seed %d batch at %d: result %+v (sharded) != %+v (serial)", seed, start, br, rbr)
			}
			if br.Truncated != 0 {
				t.Fatalf("seed %d batch at %d: unexpected truncation (%d)", seed, start, br.Truncated)
			}
			compareEngines(t, ref, sh, "seed batch")
		}
		compareStats(t, ref, sh, "seed end")
		if err := sh.Network().Validate(sh.Snapshot(), false); err != nil {
			t.Fatalf("seed %d: final sharded association invalid: %v", seed, err)
		}
	}
}

// rejectionFraming is one way of feeding a batch to the engine.
type rejectionFraming struct {
	name  string
	apply func(*Engine, []Event) (BatchResult, error)
}

// TestEngineShardRejectionParity pins batch rejection semantics for
// the one-event Apply loop and ApplyBatch at Shards 1 and 3; see
// runRejectionParity.
func TestEngineShardRejectionParity(t *testing.T) {
	runRejectionParity(t, []rejectionFraming{
		{"apply", applyEach},
		{"batch", (*Engine).ApplyBatch},
	})
}

// TestEngineStreamRejectionParity pins ApplyStream's rejection
// contract at Shards 1 and 3; see runRejectionParity.
func TestEngineStreamRejectionParity(t *testing.T) {
	runRejectionParity(t, []rejectionFraming{{"stream", (*Engine).ApplyStream}})
}

// runRejectionParity checks each framing at Shards 1 and 3: it applies
// the valid prefix, rejects the same event with the same typed error,
// and leaves the tail untouched — same Applied, partial totals, state
// and Stats as a one-event Apply loop on the serial engine, which
// validates every event against live state.
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
	for _, shards := range []int{1, 3} {
		for _, f := range framings {
			ctx := fmt.Sprintf("shards=%d %s", shards, f.name)
			n2, _, _ := zonedSetup(t, 99, 4, 12, 40, 60)
			e := newEngine(t, n2, Config{ActiveUsers: initial, Shards: shards})
			br, err := f.apply(e, batch)
			if !errors.As(err, &inv) || err.Error() != rerr.Error() {
				t.Fatalf("%s: error %v, want %v", ctx, err, rerr)
			}
			if br != rbr {
				t.Fatalf("%s: partial result %+v, want %+v", ctx, br, rbr)
			}
			compareEngines(t, ref, e, ctx)
			compareStats(t, ref, e, ctx)
		}
	}
}

// twoRegionNetwork builds a minimal two-region network: AP 0 at
// (100,100), AP 1 at (1100,100) (1000 m apart — more than two grid
// cells, so two regions), one user per AP plus a third roaming user
// starting at AP 0.
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

// twoRegionEngines builds matching serial and sharded engines over
// the two-region network.
func twoRegionEngines(t *testing.T, shards int) (*Engine, *Engine) {
	t.Helper()
	ref := newEngine(t, twoRegionNetwork(t), Config{})
	sh := newEngine(t, twoRegionNetwork(t), Config{Shards: shards})
	if sh.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", sh.Shards(), shards)
	}
	if ref.Snapshot().APOf(2) != 0 {
		t.Fatal("roaming user 2 did not start on AP 0")
	}
	return ref, sh
}

// TestEngineShardBoundaryHandoff moves a user to a position exactly
// Range() away from the destination AP — the in-region boundary — and
// checks the cross-shard handoff lands it there, including when most
// shards are empty (more shards than regions).
func TestEngineShardBoundaryHandoff(t *testing.T) {
	for _, shards := range []int{2, 8} {
		ref, sh := twoRegionEngines(t, shards)
		// (900,100) is exactly 200 m — the Table1 range — from AP 1 and
		// out of AP 0's range: a handoff whose only link is boundary-exact.
		move := Event{Kind: UserMove, User: 2, Pos: geom.Point{X: 900, Y: 100}}
		if _, err := ref.Apply(move); err != nil {
			t.Fatalf("serial: %v", err)
		}
		if _, err := sh.Apply(move); err != nil {
			t.Fatalf("sharded(%d): %v", shards, err)
		}
		if got := sh.Snapshot().APOf(2); got != 1 {
			t.Fatalf("shards=%d: user 2 on AP %d after boundary move, want 1", shards, got)
		}
		compareEngines(t, ref, sh, "boundary move")
		compareStats(t, ref, sh, "boundary move")
	}
}

// TestEngineShardHandoffVsAPDown pins the handoff-vs-fault ordering:
// a cross-shard move and a failure of the destination AP in the same
// batch must resolve identically to the serial engine, in both
// orders.
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
			ref, sh := twoRegionEngines(t, 2)
			rbr, err := applyEach(ref, tc.batch)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			br, err := sh.ApplyBatch(tc.batch)
			if err != nil {
				t.Fatalf("sharded: %v", err)
			}
			if br != rbr {
				t.Fatalf("result %+v (sharded) != %+v (serial)", br, rbr)
			}
			// Either order strands user 2: the destination AP is down by
			// the end and nothing else covers (1100,120).
			if got := sh.Snapshot().APOf(2); got != wlan.Unassociated {
				t.Fatalf("user 2 on AP %d, want unassociated", got)
			}
			compareEngines(t, ref, sh, tc.name)
			compareStats(t, ref, sh, tc.name)
		})
	}
}

// TestEngineShardClamps pins when sharding silently degrades to the
// serial engine: full-recompute mode and non-geometric networks.
func TestEngineShardClamps(t *testing.T) {
	n, _, _ := zonedSetup(t, 5, 2, 6, 10, 0)
	e := newEngine(t, n, Config{Shards: 4, Mode: ModeFullRecompute})
	if e.Shards() != 1 {
		t.Fatalf("full-recompute Shards() = %d, want 1", e.Shards())
	}
	rates := [][]radio.Mbps{{2, 4}, {4, 2}}
	nn, err := wlan.NewFromRates(rates, []int{0, 0}, []wlan.Session{{ID: 0, Rate: 2}}, wlan.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	e2 := newEngine(t, nn, Config{Shards: 4})
	if e2.Shards() != 1 {
		t.Fatalf("non-geometric Shards() = %d, want 1", e2.Shards())
	}
	n3, _, _ := zonedSetup(t, 6, 2, 6, 10, 0)
	if _, err := New(n3, Config{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}
