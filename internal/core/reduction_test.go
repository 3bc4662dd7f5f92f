package core

import (
	"math"
	"math/rand"
	"testing"

	"wlanmcast/internal/wlan"
)

func TestBuildInstanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		n := randomNetwork(t, rng, 6, 25, 3, wlan.DefaultBudget)
		in, infos := BuildInstance(n, true)
		if err := in.Validate(); err != nil {
			t.Fatalf("trial %d: instance invalid: %v", trial, err)
		}
		if len(in.Sets) != len(infos) {
			t.Fatalf("trial %d: %d sets but %d infos", trial, len(in.Sets), len(infos))
		}
		for j, s := range in.Sets {
			info := infos[j]
			if s.Group != info.AP {
				t.Fatalf("set %d: group %d != AP %d", j, s.Group, info.AP)
			}
			if len(s.Elems) == 0 {
				t.Fatalf("set %d: empty", j)
			}
			for _, u := range s.Elems {
				if n.UserSession(u) != info.Session {
					t.Fatalf("set %d covers user %d of wrong session", j, u)
				}
				r, ok := n.TxRate(info.AP, u)
				if !ok || r < info.Rate {
					t.Fatalf("set %d covers user %d that cannot decode rate %v", j, u, info.Rate)
				}
			}
			want := n.SessionLoad(info.Session, info.Rate)
			if math.Abs(s.Cost-want) > 1e-12 {
				t.Fatalf("set %d: cost %v, want %v", j, s.Cost, want)
			}
		}
		// Dominance pruning: within an (AP, session) pair all coverage
		// sizes are distinct and grow as the rate drops.
		type key struct{ ap, s int }
		last := make(map[key]int)
		lastRate := make(map[key]float64)
		for j, s := range in.Sets {
			k := key{infos[j].AP, infos[j].Session}
			if prevSize, ok := last[k]; ok {
				if len(s.Elems) <= prevSize {
					t.Fatalf("set %d: dominated set not pruned (size %d after %d)", j, len(s.Elems), prevSize)
				}
				if float64(infos[j].Rate) >= lastRate[k] {
					t.Fatalf("set %d: rates not descending within group", j)
				}
			}
			last[k] = len(s.Elems)
			lastRate[k] = float64(infos[j].Rate)
		}
	}
}

func TestBuildInstanceMatchesFigure7(t *testing.T) {
	// The reduction of the Figure 1 WLAN (1 Mbps sessions) must be
	// exactly the paper's Figure 7 set system: 7 sets with these
	// (AP, session, rate, cost, elements).
	n := figure1(t, 1, 1)
	in, infos := BuildInstance(n, true)
	type want struct {
		ap, session int
		rate        float64
		cost        float64
		elems       []int
	}
	wants := []want{
		{0, 0, 4, 1.0 / 4, []int{2}},       // S1 = {u3} @ a1
		{0, 0, 3, 1.0 / 3, []int{0, 2}},    // S2 = {u1,u3} @ a1
		{0, 1, 6, 1.0 / 6, []int{1}},       // S3 = {u2} @ a1
		{0, 1, 4, 1.0 / 4, []int{1, 3, 4}}, // S4 = {u2,u4,u5} @ a1
		{1, 0, 5, 1.0 / 5, []int{2}},       // S5 = {u3} @ a2
		{1, 1, 5, 1.0 / 5, []int{3}},       // S6 = {u4} @ a2
		{1, 1, 3, 1.0 / 3, []int{3, 4}},    // S7 = {u4,u5} @ a2
	}
	if len(in.Sets) != len(wants) {
		t.Fatalf("got %d sets, want %d", len(in.Sets), len(wants))
	}
	for _, w := range wants {
		found := false
		for j, info := range infos {
			if info.AP != w.ap || info.Session != w.session || float64(info.Rate) != w.rate {
				continue
			}
			found = true
			if math.Abs(in.Sets[j].Cost-w.cost) > 1e-12 {
				t.Errorf("set (a%d,s%d,%v): cost %v, want %v", w.ap+1, w.session+1, w.rate, in.Sets[j].Cost, w.cost)
			}
			got := make(map[int]bool, len(in.Sets[j].Elems))
			for _, e := range in.Sets[j].Elems {
				got[e] = true
			}
			if len(got) != len(w.elems) {
				t.Errorf("set (a%d,s%d,%v): elems %v, want %v", w.ap+1, w.session+1, w.rate, in.Sets[j].Elems, w.elems)
				continue
			}
			for _, e := range w.elems {
				if !got[e] {
					t.Errorf("set (a%d,s%d,%v): elems %v, want %v", w.ap+1, w.session+1, w.rate, in.Sets[j].Elems, w.elems)
					break
				}
			}
		}
		if !found {
			t.Errorf("set (a%d,s%d,%v) missing from the reduction", w.ap+1, w.session+1, w.rate)
		}
	}
}

func TestBuildInstanceBasicRateOnly(t *testing.T) {
	n := figure1(t, 1, 1)
	n.BasicRateOnly = true
	in, infos := BuildInstance(n, false)
	// One set per (AP, session with members): a1 has both sessions,
	// a2 has both (u3 for s1; u4,u5 for s2) → 4 sets, all at rate 3.
	if len(in.Sets) != 4 {
		t.Fatalf("got %d sets, want 4", len(in.Sets))
	}
	for j, info := range infos {
		if info.Rate != 3 {
			t.Errorf("set %d at rate %v, want basic rate 3", j, info.Rate)
		}
	}
}

func TestApplyPicksFirstComeFirstServed(t *testing.T) {
	n := figure1(t, 1, 1)
	in, infos := BuildInstance(n, false)
	// Find the two sets that both cover u3 (index 2): (a1,s1,3) and
	// (a2,s1,5); applying both in order must keep u3 on the first.
	var a1Set, a2Set = -1, -1
	for j, info := range infos {
		if info.Session == 0 {
			if info.AP == 0 && info.Rate == 3 {
				a1Set = j
			}
			if info.AP == 1 {
				a2Set = j
			}
		}
	}
	if a1Set == -1 || a2Set == -1 {
		t.Fatal("expected sets not found")
	}
	assoc := ApplyPicks(n, in, infos, []int{a1Set, a2Set})
	if assoc.APOf(2) != 0 {
		t.Errorf("u3 on AP %d, want the first-picked a1", assoc.APOf(2))
	}
	assoc = ApplyPicks(n, in, infos, []int{a2Set, a1Set})
	if assoc.APOf(2) != 1 {
		t.Errorf("u3 on AP %d, want the first-picked a2", assoc.APOf(2))
	}
}
