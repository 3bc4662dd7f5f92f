package wlan

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wlanmcast/internal/radio"
)

func TestMultiAssocSetOps(t *testing.T) {
	m := NewMultiAssoc(3)
	if m.NumUsers() != 3 || m.SatisfiedCount() != 0 || m.SecondaryCount() != 0 {
		t.Fatalf("empty multi-assoc: users %d satisfied %d secondary %d", m.NumUsers(), m.SatisfiedCount(), m.SecondaryCount())
	}
	for _, ap := range []int{5, 1, 3} {
		if !m.AddHome(0, ap) {
			t.Fatalf("AddHome(0, %d) = false", ap)
		}
	}
	if m.AddHome(0, 3) {
		t.Fatal("duplicate AddHome reported a change")
	}
	if got := m.Homes(0); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("homes not sorted: %v", got)
	}
	if m.Degree(0) != 3 || !m.HasHome(0, 3) || m.HasHome(0, 2) || m.HasHome(1, 1) {
		t.Fatal("Degree/HasHome wrong")
	}
	if m.SatisfiedCount() != 1 || m.SecondaryCount() != 2 {
		t.Fatalf("satisfied %d secondary %d", m.SatisfiedCount(), m.SecondaryCount())
	}
	if !m.RemoveHome(0, 3) || m.RemoveHome(0, 3) {
		t.Fatal("RemoveHome change reporting wrong")
	}
	if got := m.Homes(0); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("homes after remove: %v", got)
	}
	c := m.Clone()
	if !c.Equal(m) {
		t.Fatal("clone not equal")
	}
	c.AddHome(2, 7)
	if c.Equal(m) || m.Degree(2) != 0 {
		t.Fatal("clone not deep")
	}
	if m.Equal(NewMultiAssoc(2)) {
		t.Fatal("different sizes compare equal")
	}
}

func TestMultiAssocFromToAssoc(t *testing.T) {
	a := NewAssoc(4)
	a.Associate(0, 2)
	a.Associate(3, 1)
	m := FromAssoc(a)
	if m.Degree(0) != 1 || !m.HasHome(0, 2) || m.Degree(1) != 0 || m.Degree(3) != 1 {
		t.Fatalf("FromAssoc wrong: %v %v", m.Homes(0), m.Homes(3))
	}
	for u := 0; u < a.NumUsers(); u++ {
		if ap := a.APOf(u); ap != Unassociated && !slices.Equal(m.Homes(u), []int{ap}) {
			t.Errorf("user %d: homes %v, assoc AP %d", u, m.Homes(u), ap)
		}
	}
}

func TestMultiAssocJSONRoundTrip(t *testing.T) {
	m := NewMultiAssoc(3)
	m.AddHome(0, 2)
	m.AddHome(0, 4)
	m.AddHome(2, 1)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[[2,4],[],[1]]`; string(data) != want {
		t.Fatalf("marshal = %s, want %s", data, want)
	}
	var got MultiAssoc
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("round trip changed the association")
	}
	again, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("re-marshal not canonical: %s vs %s", again, data)
	}
}

func TestMultiAssocDecodeRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"null", `null`, "null is not"},
		{"not an array", `{"a":1}`, "decode multi-association"},
		{"negative ap", `[[-1]]`, "negative AP id"},
		{"unsorted", `[[3,1]]`, "not strictly ascending"},
		{"duplicate", `[[2,2]]`, "not strictly ascending"},
		{"wrong users", `[[0],[1]]`, "network has 3 users"},
		{"out of range", `[[0],[9],[]]`, "out-of-range AP 9"},
		{"over degree cap", `[[0,1,2],[],[]]`, "cap is 2"},
	}
	for _, tc := range cases {
		_, err := DecodeMultiAssoc([]byte(tc.in), 4, 3, 2)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
	// An inner null reads as an empty set; uncapped degree with
	// maxHomes <= 0.
	m, err := DecodeMultiAssoc([]byte(`[[0,1,2,3],null,[]]`), 4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Degree(0) != 4 || m.Degree(1) != 0 || m.Degree(2) != 0 {
		t.Fatalf("degrees: %d %d %d", m.Degree(0), m.Degree(1), m.Degree(2))
	}
}

func TestMultiTrackerMatchesRecompute(t *testing.T) {
	// Property: after any random sequence of add-home / remove-home
	// operations, the tracker's cached loads equal the from-scratch
	// APLoadMulti recomputation, and the aggregate rate is the exact
	// sum of the per-home transmission rates.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := randomNet(t, rng, 6, 25, 3)
		tr, err := NewMultiTracker(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 300; step++ {
			u := rng.Intn(n.NumUsers())
			nb := n.NeighborAPs(u)
			if len(nb) == 0 {
				continue
			}
			ap := nb[rng.Intn(len(nb))]
			if tr.HasHome(u, ap) {
				if err := tr.RemoveHome(u, ap); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := tr.AddHome(u, ap); err != nil {
					t.Fatal(err)
				}
			}
		}
		ma := tr.MultiAssoc()
		for ap := 0; ap < n.NumAPs(); ap++ {
			want := n.APLoadMulti(ma, ap)
			if got := tr.APLoad(ap); got != want {
				t.Fatalf("trial %d: AP %d tracker load %v, recompute %v", trial, ap, got, want)
			}
		}
		if got, want := tr.MaxLoad(), n.MaxLoadMulti(ma); got != want {
			t.Fatalf("trial %d: max %v vs %v", trial, got, want)
		}
		if got, want := tr.Satisfied(), ma.SatisfiedCount(); got != want {
			t.Fatalf("trial %d: satisfied %d vs %d", trial, got, want)
		}
		if got, want := tr.NumHomes()-tr.Satisfied(), ma.SecondaryCount(); got != want {
			t.Fatalf("trial %d: secondary homes %d vs %d", trial, got, want)
		}
		for u := 0; u < n.NumUsers(); u++ {
			var sum radio.Mbps
			for _, ap := range ma.Homes(u) {
				r, ok := n.TxRate(ap, u)
				if !ok {
					t.Fatalf("trial %d: user %d homed to unreachable AP %d", trial, u, ap)
				}
				sum += r
			}
			if got := n.AggregateRate(ma, u); got != sum {
				t.Fatalf("trial %d: user %d aggregate rate %v, sum of contributions %v", trial, u, got, sum)
			}
		}
	}
}

func TestMultiTrackerWhatIfMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		n := randomNet(t, rng, 5, 20, 2)
		tr, err := NewMultiTracker(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n.NumUsers(); u++ {
			nb := n.NeighborAPs(u)
			if len(nb) > 0 && rng.Intn(2) == 0 {
				if err := tr.AddHome(u, nb[rng.Intn(len(nb))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for probe := 0; probe < 40; probe++ {
			u := rng.Intn(n.NumUsers())
			nb := n.NeighborAPs(u)
			if len(nb) == 0 {
				continue
			}
			ap := nb[rng.Intn(len(nb))]
			before := tr.APLoad(ap)
			want, delta, ok := tr.LoadIfJoin(u, ap)
			if !ok {
				if !tr.HasHome(u, ap) && n.Reachable(ap, u) {
					t.Fatalf("LoadIfJoin refused a reachable non-home AP")
				}
				continue
			}
			if err := tr.AddHome(u, ap); err != nil {
				t.Fatal(err)
			}
			if got := tr.APLoad(ap); got != want {
				t.Fatalf("trial %d: LoadIfJoin predicted %v, got %v", trial, want, got)
			}
			if math.Abs(want-before-delta) > 1e-12 {
				t.Fatalf("trial %d: join delta %v, load moved %v -> %v", trial, delta, before, want)
			}
			if err := tr.RemoveHome(u, ap); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestMultiTrackerSeedAndErrors(t *testing.T) {
	// rates[ap][user]: user 0 reaches only AP 0, user 1 reaches both.
	n, err := NewFromRates(
		[][]radio.Mbps{{6, 6}, {0, 12}},
		[]int{0, 0},
		[]Session{{Rate: 1}},
		1,
	)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMultiAssoc(2)
	m.AddHome(0, 0)
	m.AddHome(1, 0)
	m.AddHome(1, 1)
	tr, err := NewMultiTracker(n, m)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.MultiAssoc().Equal(m) {
		t.Fatal("seeded tracker does not materialize the seed")
	}
	if tr.Satisfied() != 2 || tr.Degree(1) != 2 {
		t.Fatalf("satisfied %d degree(1) %d", tr.Satisfied(), tr.Degree(1))
	}
	if err := tr.AddHome(0, 0); err == nil {
		t.Fatal("AddHome accepted an existing home")
	}
	if err := tr.AddHome(0, 1); err == nil {
		t.Fatal("AddHome accepted an out-of-range AP")
	}
	if err := tr.RemoveHome(0, 1); err == nil {
		t.Fatal("RemoveHome accepted a non-home")
	}
	if _, _, ok := tr.LoadIfJoin(0, 1); ok {
		t.Fatal("LoadIfJoin accepted an out-of-range AP")
	}
	if _, _, ok := tr.LoadIfJoin(1, 0); ok {
		t.Fatal("LoadIfJoin accepted an existing home")
	}
	// Degree-1 seeds must load identically to the single-AP tracker.
	a := NewAssoc(2)
	a.Associate(0, 0)
	a.Associate(1, 1)
	st, err := NewTracker(n, a)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMultiTracker(n, FromAssoc(a))
	if err != nil {
		t.Fatal(err)
	}
	for ap := 0; ap < n.NumAPs(); ap++ {
		if st.APLoad(ap) != mt.APLoad(ap) {
			t.Fatalf("AP %d: single %v multi %v", ap, st.APLoad(ap), mt.APLoad(ap))
		}
	}
	if _, err := NewMultiTracker(n, NewMultiAssoc(5)); err == nil {
		t.Fatal("NewMultiTracker accepted a wrong-sized seed")
	}
}

// TestMultiTrackerRecordedCells pins the removal contract the engine's
// persistent tracker relies on: a home is released from the cell it
// was added with even after its user changed session or its AP went
// down, ReplaceHomes reports exactly the APs whose cell u gave up, and
// the loads stay bit-equal to APLoadMulti throughout.
func TestMultiTrackerRecordedCells(t *testing.T) {
	// rates[ap][user]: both users reach both APs.
	n, err := NewFromRates(
		[][]radio.Mbps{{6, 12}, {12, 6}},
		[]int{0, 0},
		[]Session{{Rate: 3}, {Rate: 2}},
		1,
	)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewMultiTracker(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range [][2]int{{0, 0}, {0, 1}, {1, 0}} {
		if err := tr.AddHome(h[0], h[1]); err != nil {
			t.Fatal(err)
		}
	}
	exact := func(ctx string) {
		t.Helper()
		ma := tr.MultiAssoc()
		for ap := 0; ap < n.NumAPs(); ap++ {
			if got, want := tr.APLoad(ap), n.APLoadMulti(ma, ap); got != want {
				t.Fatalf("%s: AP %d load %v, recompute %v", ctx, ap, got, want)
			}
		}
		if got, want := tr.MaxLoad(), n.MaxLoadMulti(ma); got != want {
			t.Fatalf("%s: max load %v, recompute %v", ctx, got, want)
		}
	}
	exact("seed")
	if lost, err := tr.ReplaceHomes(0, []int{1, 0}, nil); err != nil || len(lost) != 0 {
		t.Fatalf("identical replace: lost %v, err %v", lost, err)
	}
	exact("identical replace")

	// A session change moves user 0 to other cells on both of its APs.
	if err := n.SetUserSession(0, 1); err != nil {
		t.Fatal(err)
	}
	lost, err := tr.ReplaceHomes(0, []int{0, 1}, nil)
	if err != nil || len(lost) != 2 || lost[0] != 0 || lost[1] != 1 {
		t.Fatalf("session change: lost %v, err %v; want [0 1]", lost, err)
	}
	exact("session change")

	// AP 1 goes down: dropping the home there still releases its cell.
	if err := n.DisableAP(1); err != nil {
		t.Fatal(err)
	}
	if lost, err = tr.ReplaceHomes(0, []int{0}, lost[:0]); err != nil || len(lost) != 1 || lost[0] != 1 {
		t.Fatalf("AP down: lost %v, err %v; want [1]", lost, err)
	}
	exact("AP down")
	if tr.APLoad(1) != 0 || tr.NumHomes() != 2 || tr.Satisfied() != 2 {
		t.Fatalf("AP down: load %v homes %d satisfied %d", tr.APLoad(1), tr.NumHomes(), tr.Satisfied())
	}
	if _, err := tr.ReplaceHomes(1, []int{1}, nil); err == nil {
		t.Fatal("ReplaceHomes accepted a down AP")
	}
	if tr.Degree(1) != 0 || tr.Satisfied() != 1 {
		t.Fatalf("failed replace: degree %d satisfied %d", tr.Degree(1), tr.Satisfied())
	}
	if err := tr.RemoveHome(0, 0); err != nil {
		t.Fatal(err)
	}
	exact("emptied")
	if tr.MaxLoad() != 0 || tr.NumHomes() != 0 {
		t.Fatalf("emptied tracker: max %v homes %d", tr.MaxLoad(), tr.NumHomes())
	}
}

func TestValidateMulti(t *testing.T) {
	// rates[ap][user]: user 0 reaches only AP 0, user 1 reaches both.
	n, err := NewFromRates(
		[][]radio.Mbps{{6, 6}, {0, 12}},
		[]int{0, 0},
		[]Session{{Rate: 3}},
		0.9,
	)
	if err != nil {
		t.Fatal(err)
	}
	good := NewMultiAssoc(2)
	good.AddHome(0, 0)
	good.AddHome(1, 1)
	if err := n.ValidateMulti(good, false); err != nil {
		t.Fatal(err)
	}
	if err := n.ValidateMulti(NewMultiAssoc(3), false); err == nil {
		t.Fatal("accepted a wrong-sized association")
	}
	bad := NewMultiAssoc(2)
	bad.AddHome(0, 1) // user 0 cannot reach AP 1
	if err := n.ValidateMulti(bad, false); err == nil {
		t.Fatal("accepted an out-of-range home")
	}
	unknown := &MultiAssoc{homes: [][]int{{4}, nil}}
	if err := n.ValidateMulti(unknown, false); err == nil {
		t.Fatal("accepted an unknown AP")
	}
	unsorted := &MultiAssoc{homes: [][]int{{1, 0}, nil}}
	if err := n.ValidateMulti(unsorted, false); err == nil {
		t.Fatal("accepted an unsorted AP set")
	}
	// Session rate 3: serving user 1 costs 3/6 = 0.5 on AP 0 and
	// 3/12 = 0.25 on AP 1. Homing user 1 to both APs is fine under
	// budget 0.9, but with AP 0's budget tightened to 0.4 enforcement
	// must trip.
	both := NewMultiAssoc(2)
	both.AddHome(1, 0)
	both.AddHome(1, 1)
	if err := n.ValidateMulti(both, true); err != nil {
		t.Fatalf("budget 0.9 should accept 0.5 loads: %v", err)
	}
	n.APs[0].Budget = 0.4
	if err := n.ValidateMulti(both, true); err == nil {
		t.Fatal("budget 0.4 accepted a 0.5 load")
	}
}

func TestAggregateRateDegradesUnderFault(t *testing.T) {
	// rates[ap][user]: one user in range of both APs.
	n, err := NewFromRates(
		[][]radio.Mbps{{6}, {12}},
		[]int{0},
		[]Session{{Rate: 1}},
		1,
	)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMultiAssoc(1)
	m.AddHome(0, 0)
	m.AddHome(0, 1)
	if got := n.AggregateRate(m, 0); got != 18 {
		t.Fatalf("aggregate = %v, want 18", got)
	}
	if err := n.DisableAP(1); err != nil {
		t.Fatal(err)
	}
	if got := n.AggregateRate(m, 0); got != 6 {
		t.Fatalf("aggregate with AP 1 down = %v, want 6 (graceful degradation)", got)
	}
	if l := n.APLoadMulti(m, 1); l != 0 {
		t.Fatalf("down AP load = %v, want 0", l)
	}
	if err := n.EnableAP(1); err != nil {
		t.Fatal(err)
	}
	if got := n.AggregateRate(m, 0); got != 18 {
		t.Fatalf("aggregate after recovery = %v, want 18", got)
	}
}

// RemoveHome removes AP ap from user u's homes, releasing the cell
// the home was added with (so it works after the AP went down or u
// moved). ap must currently be one of u's homes. Production changes
// AP sets through AddHome and ReplaceHomes; the random-sequence suites
// drive single removals through this.
func (t *MultiTracker) RemoveHome(u, ap int) error {
	i := t.homeIndex(u, ap)
	if i < 0 {
		return fmt.Errorf("wlan: tracker: user %d is not homed to AP %d", u, ap)
	}
	t.removeAt(u, i)
	return nil
}
