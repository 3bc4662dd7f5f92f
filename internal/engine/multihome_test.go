package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wlanmcast/internal/core"
	"wlanmcast/internal/fault"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// mustJSON marshals v or fails the test.
func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mustEncode snapshots e or fails the test.
func mustEncode(t *testing.T, e *Engine) []byte {
	t.Helper()
	b, err := e.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertMultiInvariants checks the multi-homing safety properties on
// the engine's current state: the multi-association validates against
// the fault-aware network (so no set ever contains a down or
// unreachable AP), degrees respect the cap, the primary is always a
// member of its user's set, inactive users hold nothing, the
// aggregate rate is the exact float sum of the per-home link rates,
// and the published gauges agree with the snapshot they were derived
// from. Returns the multi-association for further checks.
func assertMultiInvariants(t *testing.T, e *Engine, ctx string) *wlan.MultiAssoc {
	t.Helper()
	n := e.Network()
	ma := e.MultiSnapshot()
	if err := n.ValidateMulti(ma, false); err != nil {
		t.Fatalf("%s: multi-association invalid: %v", ctx, err)
	}
	snap := e.Snapshot()
	for u := 0; u < n.NumUsers(); u++ {
		if d := ma.Degree(u); d > e.MaxHomes() {
			t.Fatalf("%s: user %d has %d homes, cap %d", ctx, u, d, e.MaxHomes())
		}
		if !e.Active(u) && ma.Degree(u) != 0 {
			t.Fatalf("%s: inactive user %d holds homes %v", ctx, u, ma.Homes(u))
		}
		if ap := snap.APOf(u); ap != wlan.Unassociated && !ma.HasHome(u, ap) {
			t.Fatalf("%s: user %d primary %d missing from homes %v", ctx, u, ap, ma.Homes(u))
		}
		var sum radio.Mbps
		for _, ap := range ma.Homes(u) {
			r, ok := n.TxRate(ap, u)
			if !ok {
				t.Fatalf("%s: user %d home %d has no live link", ctx, u, ap)
			}
			sum += r
		}
		if got := n.AggregateRate(ma, u); got != sum {
			t.Fatalf("%s: user %d aggregate rate %v, want exact sum %v", ctx, u, got, sum)
		}
	}
	if ma.SatisfiedCount() < snap.SatisfiedCount() {
		t.Fatalf("%s: multi satisfied %d < single satisfied %d", ctx, ma.SatisfiedCount(), snap.SatisfiedCount())
	}
	if got := e.metrics.mhSatisfied.Value(); got != float64(ma.SatisfiedCount()) {
		t.Fatalf("%s: mhSatisfied gauge %v, want %d", ctx, got, ma.SatisfiedCount())
	}
	if got := e.metrics.mhSecondary.Value(); got != float64(ma.SecondaryCount()) {
		t.Fatalf("%s: mhSecondary gauge %v, want %d", ctx, got, ma.SecondaryCount())
	}
	if got := e.metrics.mhLoadMax.Value(); got != n.MaxLoadMulti(ma) {
		t.Fatalf("%s: mhLoadMax gauge %v, want %v", ctx, got, n.MaxLoadMulti(ma))
	}
	return ma
}

// TestEngineMultiDegree1Differential is the engine half of the
// degree-1 differential suite: a MaxHomes=1 engine must be
// bit-identical to the pre-multi-homing engine (MaxHomes=0) — same
// snapshots, loads, stats, persisted bytes, and a MultiSnapshot that
// is exactly the single-AP snapshot lifted to sets — over zoned
// churn+fault traces. Runs under -race in check.sh.
func TestEngineMultiDegree1Differential(t *testing.T) {
	const chunk = 16
	for seed := int64(1); seed <= 6; seed++ {
		n0, trace, initial := zonedSetup(t, seed, 4, 6, 20, 160)
		base := newEngine(t, n0, Config{ActiveUsers: initial})
		n1, _, _ := zonedSetup(t, seed, 4, 6, 20, 160)
		m1 := newEngine(t, n1, Config{ActiveUsers: initial, MaxHomes: 1})
		compareEngines(t, base, m1, "seed init")
		for start := 0; start < len(trace); start += chunk {
			batch := trace[start:min(start+chunk, len(trace))]
			if _, err := base.ApplyBatch(batch); err != nil {
				t.Fatalf("seed %d: base batch at %d: %v", seed, start, err)
			}
			if _, err := m1.ApplyBatch(batch); err != nil {
				t.Fatalf("seed %d: MaxHomes=1 batch at %d: %v", seed, start, err)
			}
			compareEngines(t, base, m1, "batch")
			b0, b1 := mustEncode(t, base), mustEncode(t, m1)
			if !bytes.Equal(b0, b1) {
				t.Fatalf("seed %d batch at %d: persisted snapshots differ:\n%s\n%s", seed, start, b0, b1)
			}
			lifted := mustJSON(t, wlan.FromAssoc(m1.Snapshot()))
			if got := mustJSON(t, m1.MultiSnapshot()); !bytes.Equal(got, lifted) {
				t.Fatalf("seed %d batch at %d: MultiSnapshot %s != lifted snapshot %s", seed, start, got, lifted)
			}
			if got := mustJSON(t, base.MultiSnapshot()); !bytes.Equal(got, lifted) {
				t.Fatalf("seed %d batch at %d: MaxHomes=0 MultiSnapshot diverged", seed, start)
			}
		}
		compareStats(t, base, m1, "final")
	}
}

// TestEngineMultihomeFaultProperties drives a mixed churn+fault
// stream through a MaxHomes=2 incremental engine and asserts the
// multi-homing safety invariants after every single event: no AP-set
// ever contains a down AP, degrees stay capped, and aggregate rates
// are exact sums. The schedule must actually exercise secondaries.
func TestEngineMultihomeFaultProperties(t *testing.T) {
	n, trace := churnSetup(t, 21, 10, 40, 25, 3, 120)
	e := newEngine(t, n, Config{Objective: core.ObjMLA, ActiveUsers: 25, MaxHomes: 2})
	sched, err := fault.Gen(fault.Params{
		Seed: 505, APs: n.NumAPs(), Horizon: trace[len(trace)-1].At,
		MTBF: 20, MTTR: 8, GroupSize: 3, FlapProb: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Downs() == 0 {
		t.Fatal("schedule has no failures")
	}
	sawSecondary := false
	for i, ev := range MergeFaults(trace, sched) {
		if _, err := e.Apply(ev); err != nil {
			t.Fatalf("event %d (%+v): %v", i, ev, err)
		}
		assertNoDownAssociation(t, e, false)
		ma := assertMultiInvariants(t, e, "event")
		if ma.SecondaryCount() > 0 {
			sawSecondary = true
		}
	}
	if !sawSecondary {
		t.Fatal("no secondary home was ever derived; the property run is vacuous")
	}
}

// TestEngineMultihomeFullRecomputeRecovery pins the recovery
// property: in ModeFullRecompute the multi-home state is a pure
// function of the current network and primary association, so taking
// APs down and bringing them all back lands byte-identically on the
// never-failed engine's state — association, AP-sets, and loads.
func TestEngineMultihomeFullRecomputeRecovery(t *testing.T) {
	cfg := Config{Objective: core.ObjMNU, EnforceBudget: true, Mode: ModeFullRecompute, MaxHomes: 2}
	n1, _ := churnSetup(t, 31, 10, 30, 30, 3, 0)
	never := newEngine(t, n1, cfg)
	n2, _ := churnSetup(t, 31, 10, 30, 30, 3, 0)
	e := newEngine(t, n2, cfg)
	for _, a := range []int{0, 2, 4} {
		if _, err := e.Apply(Event{Kind: APDown, User: -1, AP: a}); err != nil {
			t.Fatal(err)
		}
		assertMultiInvariants(t, e, "down")
	}
	if bytes.Equal(mustJSON(t, never.MultiSnapshot()), mustJSON(t, e.MultiSnapshot())) {
		t.Fatal("downing three APs did not change the multi-association; recovery check is vacuous")
	}
	for _, a := range []int{0, 2, 4} {
		if _, err := e.Apply(Event{Kind: APUp, User: -1, AP: a}); err != nil {
			t.Fatal(err)
		}
		assertMultiInvariants(t, e, "up")
	}
	if got, want := mustJSON(t, e.Snapshot()), mustJSON(t, never.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("recovered association differs from never-failed:\n%s\n%s", got, want)
	}
	if got, want := mustJSON(t, e.MultiSnapshot()), mustJSON(t, never.MultiSnapshot()); !bytes.Equal(got, want) {
		t.Fatalf("recovered multi-association differs from never-failed:\n%s\n%s", got, want)
	}
	if got, want := e.APLoads(), never.APLoads(); !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Fatalf("recovered loads %v differ from never-failed %v", got, want)
	}
}

// degradationNet is a hand-built 2-AP, 2-user, 3-session network
// engineered so a grandfathered secondary is the only thing keeping a
// user served through its primary AP's outage:
//
//	rates (rows = APs): AP0 -> {12, 0}, AP1 -> {6, 6}
//	sessions: 0 at 3 Mbps, 1 at 1 Mbps, 2 at 3 Mbps; budget 0.8
//
// User 0 (session 0) homes on AP0 (load 0.25) and gains AP1 as a
// budget-admissible secondary while user 1 still draws session 1
// (AP1 multi-load 1/6 + 0.5 <= 0.8). A demand change moves user 1 to
// session 2, raising AP1's primary load to 0.5 — now AP0's failure
// leaves user 0 un-rehomeable (0.5 + 0.5 > 0.8) on the single-AP
// path, but the grandfathered secondary keeps it served at 6 Mbps.
func degradationNet(t *testing.T) *wlan.Network {
	t.Helper()
	n, err := wlan.NewFromRates(
		[][]radio.Mbps{{12, 0}, {6, 6}},
		[]int{0, 1},
		[]wlan.Session{{Rate: 3}, {Rate: 1}, {Rate: 3}},
		0.8,
	)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEngineMultihomeDegradesInsteadOfOrphaning is the headline
// behavioral property from ISSUE 10: when budgets block single-AP
// rehoming after a primary AP failure, the multi-homed engine keeps
// the user served at a reduced aggregate rate while the single-AP
// twin orphans it — and full service returns when the AP does.
func TestEngineMultihomeDegradesInsteadOfOrphaning(t *testing.T) {
	cfg := Config{Objective: core.ObjMLA, EnforceBudget: true, ActiveUsers: 2}
	single := newEngine(t, degradationNet(t), cfg)
	cfg.MaxHomes = 2
	multi := newEngine(t, degradationNet(t), cfg)

	ma := assertMultiInvariants(t, multi, "seed")
	if got := mustJSON(t, ma.Homes(0)); string(got) != "[0,1]" {
		t.Fatalf("seed: user 0 homes %s, want [0,1]", got)
	}
	if got := multi.Network().AggregateRate(ma, 0); got != 18 {
		t.Fatalf("seed: user 0 aggregate rate %v, want 18", got)
	}

	step := func(ev Event) {
		t.Helper()
		if _, err := single.Apply(ev); err != nil {
			t.Fatalf("single %+v: %v", ev, err)
		}
		if _, err := multi.Apply(ev); err != nil {
			t.Fatalf("multi %+v: %v", ev, err)
		}
		// The primary path is the single-AP engine, bit-identically.
		if s, m := mustJSON(t, single.Snapshot()), mustJSON(t, multi.Snapshot()); !bytes.Equal(s, m) {
			t.Fatalf("after %+v: primary association diverged: %s vs %s", ev, s, m)
		}
	}

	// User 1 switches to the 3 Mbps session: AP1's primary load rises
	// to 0.5. The already-admitted secondary is grandfathered even
	// though AP1's multi-load (1.0) now exceeds the 0.8 budget — that
	// over-budget hold is the documented degradation semantics.
	step(Event{Kind: DemandChange, User: 1, Session: 2})
	ma = assertMultiInvariants(t, multi, "demand")
	if got := mustJSON(t, ma.Homes(0)); string(got) != "[0,1]" {
		t.Fatalf("demand: user 0 homes %s, want [0,1]", got)
	}
	if got := multi.Network().MaxLoadMulti(ma); got != 1.0 {
		t.Fatalf("demand: multi max load %v, want exactly 1.0 (grandfathered past budget)", got)
	}
	preFault := mustJSON(t, ma)

	// AP0 fails: the single-AP path cannot rehome user 0 under the
	// budget, so it is orphaned — but the surviving secondary keeps it
	// served at the degraded 6 Mbps.
	step(Event{Kind: APDown, User: -1, AP: 0})
	if got := single.Snapshot().APOf(0); got != wlan.Unassociated {
		t.Fatalf("fault: single-AP engine rehomed user 0 to %d; budget should have blocked it", got)
	}
	ma = assertMultiInvariants(t, multi, "fault")
	if got := mustJSON(t, ma.Homes(0)); string(got) != "[1]" {
		t.Fatalf("fault: user 0 homes %s, want [1]", got)
	}
	if got := multi.Network().AggregateRate(ma, 0); got != 6 {
		t.Fatalf("fault: user 0 aggregate rate %v, want degraded 6", got)
	}
	if s, m := single.Snapshot().SatisfiedCount(), ma.SatisfiedCount(); m <= s {
		t.Fatalf("fault: multi satisfied %d not strictly above single %d", m, s)
	}

	// AP0 returns: user 0 reclaims its primary and the pre-fault
	// multi-association is restored exactly.
	step(Event{Kind: APUp, User: -1, AP: 0})
	ma = assertMultiInvariants(t, multi, "recovery")
	if got := mustJSON(t, ma); !bytes.Equal(got, preFault) {
		t.Fatalf("recovery: multi-association %s, want pre-fault %s", got, preFault)
	}
	if got := multi.Network().AggregateRate(ma, 0); got != 18 {
		t.Fatalf("recovery: user 0 aggregate rate %v, want 18", got)
	}
}

// TestEngineMultihomeSnapshotRoundTrip extends the crash-recovery
// byte-identity guarantee to multi-homed state: a snapshot taken
// mid-stream restores to an engine whose persisted bytes,
// multi-association, and continued behavior under the rest of the
// stream are indistinguishable from the uninterrupted original.
func TestEngineMultihomeSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Objective: core.ObjMLA, ActiveUsers: 25, MaxHomes: 2}
	n, trace := churnSetup(t, 41, 10, 40, 25, 3, 120)
	e := newEngine(t, n, cfg)
	sched, err := fault.Gen(fault.Params{
		Seed: 606, APs: n.NumAPs(), Horizon: trace[len(trace)-1].At,
		MTBF: 20, MTTR: 8, GroupSize: 3, FlapProb: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeFaults(trace, sched)
	half := len(merged) / 2
	for _, ev := range merged[:half] {
		if _, err := e.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if e.MultiSnapshot().SecondaryCount() == 0 {
		t.Fatal("no secondary homes at the snapshot point; round-trip is vacuous")
	}
	enc := mustEncode(t, e)

	n2, _ := churnSetup(t, 41, 10, 40, 25, 3, 120)
	r, err := RestoreSnapshot(n2, cfg, enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustEncode(t, r); !bytes.Equal(got, enc) {
		t.Fatalf("restored snapshot re-encodes differently:\n%s\n%s", got, enc)
	}
	if got, want := mustJSON(t, r.MultiSnapshot()), mustJSON(t, e.MultiSnapshot()); !bytes.Equal(got, want) {
		t.Fatalf("restored multi-association differs:\n%s\n%s", got, want)
	}
	for i, ev := range merged[half:] {
		if _, err := e.Apply(ev); err != nil {
			t.Fatalf("original event %d: %v", i, err)
		}
		if _, err := r.Apply(ev); err != nil {
			t.Fatalf("restored event %d: %v", i, err)
		}
		if got, want := mustJSON(t, r.MultiSnapshot()), mustJSON(t, e.MultiSnapshot()); !bytes.Equal(got, want) {
			t.Fatalf("event %d: restored engine diverged:\n%s\n%s", i, got, want)
		}
	}
	if got, want := mustEncode(t, r), mustEncode(t, e); !bytes.Equal(got, want) {
		t.Fatalf("final persisted states differ:\n%s\n%s", got, want)
	}

	// A snapshot carrying secondary homes must be refused by a
	// single-AP configuration rather than silently dropped.
	n3, _ := churnSetup(t, 41, 10, 40, 25, 3, 120)
	if _, err := RestoreSnapshot(n3, Config{Objective: core.ObjMLA, ActiveUsers: 25}, enc); err == nil {
		t.Fatal("restore with MaxHomes=0 accepted a snapshot with secondary homes")
	} else if !strings.Contains(err.Error(), "secondary homes") {
		t.Fatalf("refusal error %q does not name secondary homes", err)
	}
}

// TestEngineSetMultiAssoc covers the externally-installed AP-set path
// (PUT /v1/multiassoc): normalization picks the strongest-signal
// member as primary, and every rejection leaves the engine's
// persisted state untouched.
func TestEngineSetMultiAssoc(t *testing.T) {
	e := newEngine(t, degradationNet(t), Config{ActiveUsers: 2, MaxHomes: 2})
	ma := wlan.NewMultiAssoc(2)
	ma.AddHome(0, 0)
	ma.AddHome(0, 1)
	ma.AddHome(1, 1)
	if err := e.SetMultiAssoc(ma); err != nil {
		t.Fatal(err)
	}
	// AP0's 12 Mbps beats AP1's 6 for user 0 on a rate-table network.
	if got := e.Snapshot().APOf(0); got != 0 {
		t.Fatalf("user 0 primary %d, want strongest-signal AP 0", got)
	}
	got := e.MultiSnapshot()
	for u := 0; u < 2; u++ {
		for _, ap := range ma.Homes(u) {
			if !got.HasHome(u, ap) {
				t.Fatalf("installed home (%d,%d) missing from %v", u, ap, got.Homes(u))
			}
		}
	}
	assertMultiInvariants(t, e, "install")

	before := mustEncode(t, e)
	reject := func(name string, bad *wlan.MultiAssoc) {
		t.Helper()
		if err := e.SetMultiAssoc(bad); err == nil {
			t.Fatalf("%s: install accepted", name)
		}
		if got := mustEncode(t, e); !bytes.Equal(got, before) {
			t.Fatalf("%s: rejected install mutated engine state", name)
		}
	}
	over := wlan.NewMultiAssoc(2)
	over.AddHome(0, 0)
	over.AddHome(0, 1)
	e2 := newEngine(t, degradationNet(t), Config{ActiveUsers: 2})
	if err := e2.SetMultiAssoc(over); err == nil || !strings.Contains(err.Error(), "MaxHomes") {
		t.Fatalf("degree-over-cap install on single-AP engine: %v", err)
	}
	unreachable := wlan.NewMultiAssoc(2)
	unreachable.AddHome(1, 0) // AP0 has no link to user 1
	reject("unreachable", unreachable)
	sized := wlan.NewMultiAssoc(3)
	reject("wrong size", sized)
	if _, err := e.Apply(Event{Kind: APDown, User: -1, AP: 0}); err != nil {
		t.Fatal(err)
	}
	before = mustEncode(t, e)
	down := wlan.NewMultiAssoc(2)
	down.AddHome(0, 0)
	reject("down AP", down)
}

// TestEngineMultihomeConfig pins the config surface: negative
// MaxHomes is refused at construction, values <= 1 disable the layer
// (gauges mirror the single-AP figures), and MaxHomes() clamps.
func TestEngineMultihomeConfig(t *testing.T) {
	n, _ := churnSetup(t, 51, 6, 10, 8, 2, 0)
	if _, err := New(n, Config{MaxHomes: -1}); err == nil {
		t.Fatal("negative MaxHomes accepted")
	}
	e := newEngine(t, n, Config{ActiveUsers: 8})
	if got := e.MaxHomes(); got != 1 {
		t.Fatalf("MaxHomes() = %d, want clamped 1", got)
	}
	if e.multihomeOn() {
		t.Fatal("multi-homing reported on with MaxHomes=0")
	}
	snap := e.Snapshot()
	if got := e.metrics.mhSatisfied.Value(); got != float64(snap.SatisfiedCount()) {
		t.Fatalf("off-mode mhSatisfied %v, want mirrored %d", got, snap.SatisfiedCount())
	}
	if got := e.metrics.mhSecondary.Value(); got != 0 {
		t.Fatalf("off-mode mhSecondary %v, want 0", got)
	}
	if got := e.metrics.mhLoadMax.Value(); got != e.MaxLoad() {
		t.Fatalf("off-mode mhLoadMax %v, want mirrored %v", got, e.MaxLoad())
	}
}

// multiCallChecker holds the previous call's secondary sets and checks
// the engine against a from-scratch derivation after every call.
type multiCallChecker struct {
	t           *testing.T
	maxHomes    int
	prevSec     [][]int
	secondaries int
}

// check asserts e's multi-association and its three assocd_multihome_*
// gauges equal core.AugmentHomes(n, Snapshot(), prevSec, MaxHomes),
// then makes the current sets the next call's prevSec. prevSec is
// overridden by installSec when the call installed sets itself.
func (c *multiCallChecker) check(e *Engine, ctx string, installSec [][]int) {
	c.t.Helper()
	prev := c.prevSec
	if installSec != nil {
		prev = installSec
	}
	n := e.Network()
	want, sec, err := core.AugmentHomes(n, e.Snapshot(), prev, c.maxHomes)
	if err != nil {
		c.t.Fatalf("%s: reference derivation: %v", ctx, err)
	}
	if got, w := mustJSON(c.t, e.MultiSnapshot()), mustJSON(c.t, want); !bytes.Equal(got, w) {
		c.t.Fatalf("%s: incremental multi-association differs from AugmentHomes:\n got %s\nwant %s", ctx, got, w)
	}
	if got := e.metrics.mhSatisfied.Value(); got != float64(want.SatisfiedCount()) {
		c.t.Fatalf("%s: mhSatisfied gauge %v, want %d", ctx, got, want.SatisfiedCount())
	}
	if got := e.MultiSatisfied(); got != want.SatisfiedCount() {
		c.t.Fatalf("%s: MultiSatisfied %d, want %d", ctx, got, want.SatisfiedCount())
	}
	if got := e.metrics.mhSecondary.Value(); got != float64(want.SecondaryCount()) {
		c.t.Fatalf("%s: mhSecondary gauge %v, want %d", ctx, got, want.SecondaryCount())
	}
	if got, w := e.metrics.mhLoadMax.Value(), n.MaxLoadMulti(want); got != w {
		c.t.Fatalf("%s: mhLoadMax gauge %v, want %v", ctx, got, w)
	}
	c.secondaries += want.SecondaryCount()
	c.prevSec = sec
}

// zonedFaultSetup is zonedSetup's network and churn with its periodic
// AP toggles replaced by a seeded fault schedule (correlated failures
// and flaps) merged in by time.
func zonedFaultSetup(t *testing.T, seed int64, events int) (*wlan.Network, []Event, int) {
	t.Helper()
	n, trace, initial := zonedSetup(t, seed, 4, 6, 20, events)
	churn := trace[:0:0]
	for _, ev := range trace {
		if ev.Kind != APDown && ev.Kind != APUp {
			churn = append(churn, ev)
		}
	}
	horizon := churn[len(churn)-1].At
	sched, err := fault.Gen(fault.Params{
		Seed: seed, APs: n.NumAPs(), Horizon: horizon,
		MTBF: horizon / 2, MTTR: horizon / 10, GroupSize: 2, FlapProb: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, MergeFaults(churn, sched), initial
}

// TestEngineMultihomeIncrementalExact is the exactness suite for the
// incremental secondary-home derivation: over 20 seeded zoned
// scenarios (churn merged with fault schedules) × three call mixes ×
// MaxHomes {2, 3}, the trace is driven through a random mix of Apply,
// ApplyBatch and ApplyStream calls, interleaved with SetAssoc,
// SetMultiAssoc and snapshot/restore, and after every call the
// engine's sets and gauges must equal a from-scratch AugmentHomes over
// the previous call's sets. Runs under -race in CI.
func TestEngineMultihomeIncrementalExact(t *testing.T) {
	secondaries := 0
	for seed := int64(1); seed <= 20; seed++ {
		for _, mix := range []int{1, 2, 4} {
			for _, maxHomes := range []int{2, 3} {
				secondaries += runIncrementalExact(t, seed, mix, maxHomes)
			}
		}
	}
	if secondaries == 0 {
		t.Fatal("no secondary home was ever derived; the suite is vacuous")
	}
}

// runIncrementalExact drives one seeded scenario through the call mix
// that mix seeds and returns how many secondary homes it derived.
func runIncrementalExact(t *testing.T, seed int64, mix, maxHomes int) int {
	t.Helper()
	n, trace, initial := zonedFaultSetup(t, seed, 160)
	cfg := Config{ActiveUsers: initial, MaxHomes: maxHomes}
	e := newEngine(t, n, cfg)
	c := &multiCallChecker{t: t, maxHomes: maxHomes}
	c.check(e, fmt.Sprintf("seed %d mix %d homes %d: init", seed, mix, maxHomes), nil)
	rng := rand.New(rand.NewSource(seed*7 + int64(mix*3+maxHomes)))
	for i := 0; i < len(trace); {
		ctx := fmt.Sprintf("seed %d mix %d homes %d at %d", seed, mix, maxHomes, i)
		var installSec [][]int
		switch k := rng.Intn(20); {
		case k < 8:
			if _, err := e.Apply(trace[i]); err != nil {
				t.Fatalf("%s: Apply: %v", ctx, err)
			}
			i++
			ctx += " Apply"
		case k < 13:
			j := min(i+1+rng.Intn(12), len(trace))
			if _, err := e.ApplyBatch(trace[i:j]); err != nil {
				t.Fatalf("%s: ApplyBatch: %v", ctx, err)
			}
			i = j
			ctx += " ApplyBatch"
		case k < 17:
			j := min(i+1+rng.Intn(24), len(trace))
			if _, err := e.ApplyStream(trace[i:j]); err != nil {
				t.Fatalf("%s: ApplyStream: %v", ctx, err)
			}
			i = j
			ctx += " ApplyStream"
		case k == 17:
			if err := e.SetAssoc(perturbAssoc(e, rng)); err != nil {
				t.Fatalf("%s: SetAssoc: %v", ctx, err)
			}
			ctx += " SetAssoc"
		case k == 18:
			ma := perturbMulti(e, rng, maxHomes)
			if err := e.SetMultiAssoc(ma); err != nil {
				t.Fatalf("%s: SetMultiAssoc: %v", ctx, err)
			}
			snap := e.Snapshot()
			installSec = make([][]int, ma.NumUsers())
			for u := range installSec {
				for _, ap := range ma.Homes(u) {
					if ap != snap.APOf(u) {
						installSec[u] = append(installSec[u], ap)
					}
				}
			}
			ctx += " SetMultiAssoc"
		default:
			enc := mustEncode(t, e)
			before := mustJSON(t, e.MultiSnapshot())
			n2, _, _ := zonedFaultSetup(t, seed, 160)
			r, err := RestoreSnapshot(n2, cfg, enc)
			if err != nil {
				t.Fatalf("%s: RestoreSnapshot: %v", ctx, err)
			}
			if got := mustJSON(t, r.MultiSnapshot()); !bytes.Equal(got, before) {
				t.Fatalf("%s: restore moved the multi-association:\n got %s\nwant %s", ctx, got, before)
			}
			e = r
			ctx += " RestoreSnapshot"
		}
		c.check(e, ctx, installSec)
	}
	return c.secondaries
}

// perturbAssoc returns the engine's association with a few active
// users moved to another reachable AP — a valid SetAssoc install that
// changes primaries.
func perturbAssoc(e *Engine, rng *rand.Rand) *wlan.Assoc {
	a := e.Snapshot()
	n := e.Network()
	for k := 0; k < 3; k++ {
		u := rng.Intn(n.NumUsers())
		if nb := n.NeighborAPs(u); e.Active(u) && len(nb) > 0 {
			a.Associate(u, nb[rng.Intn(len(nb))])
		}
	}
	return a
}

// perturbMulti returns the engine's multi-association with a few users'
// sets redrawn from their reachable APs (up to maxHomes, active users
// only) — a valid SetMultiAssoc install.
func perturbMulti(e *Engine, rng *rand.Rand, maxHomes int) *wlan.MultiAssoc {
	ma := e.MultiSnapshot()
	n := e.Network()
	for k := 0; k < 3; k++ {
		u := rng.Intn(n.NumUsers())
		nb := n.NeighborAPs(u)
		if !e.Active(u) || len(nb) == 0 {
			continue
		}
		for _, ap := range append([]int(nil), ma.Homes(u)...) {
			ma.RemoveHome(u, ap)
		}
		for _, i := range rng.Perm(len(nb))[:min(len(nb), 1+rng.Intn(maxHomes))] {
			ma.AddHome(u, nb[i])
		}
	}
	return ma
}
