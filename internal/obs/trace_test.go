package obs

import (
	"bytes"
	"testing"
)

func TestRingRecordAndEvict(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Record(Event{Type: EvHandoff, User: i})
	}
	if r.Total() != 6 || r.Len() != 4 || r.Dropped() != 2 {
		t.Fatalf("total/len/dropped = %d/%d/%d, want 6/4/2", r.Total(), r.Len(), r.Dropped())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(snap))
	}
	for i, ev := range snap {
		if ev.User != i+2 {
			t.Fatalf("snapshot[%d].User = %d, want %d (oldest-first after eviction)", i, ev.User, i+2)
		}
		if ev.Seq != uint64(i+3) {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, ev.Seq, i+3)
		}
	}
	if got := r.CountsByType()[EvHandoff]; got != 6 {
		t.Fatalf("counts[handoff] = %d, want 6 (evicted events still counted)", got)
	}
}

func TestRingJSONLRoundTrip(t *testing.T) {
	r := NewRing(16)
	r.Record(Event{Type: EvChurn, Kind: "join", User: 3, N: 7, Value: 0.5})
	r.Record(Event{Type: EvRound, Algo: "MLA-distributed", Round: 2, N: 1})
	var b bytes.Buffer
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("read %d events, want 2", len(events))
	}
	if events[0].Kind != "join" || events[0].User != 3 || events[0].N != 7 {
		t.Fatalf("event 0 mangled: %+v", events[0])
	}
	if events[1].Algo != "MLA-distributed" || events[1].Round != 2 {
		t.Fatalf("event 1 mangled: %+v", events[1])
	}
	counts := CountByType(events)
	if counts[EvChurn] != 1 || counts[EvRound] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestJSONLRecorder(t *testing.T) {
	var b bytes.Buffer
	j := NewJSONL(&b)
	for i := 0; i < 3; i++ {
		j.Record(Event{Type: EvRunnerTask, Point: i, Seed: i * 2, Value: 0.01})
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("read %d events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) || ev.Point != i || ev.Seed != i*2 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

func TestSamplerDeterministic(t *testing.T) {
	r := NewRing(64)
	s := NewSampler(3, r)
	for i := 0; i < 10; i++ {
		s.Record(Event{Type: EvMacTx, AP: i})
	}
	for i := 0; i < 4; i++ {
		s.Record(Event{Type: EvHandoff, User: i})
	}
	snap := r.Snapshot()
	var mac, hand []int
	for _, ev := range snap {
		switch ev.Type {
		case EvMacTx:
			mac = append(mac, ev.AP)
		case EvHandoff:
			hand = append(hand, ev.User)
		}
	}
	// 1-in-3 per type keeps indices 0, 3, 6, 9 of each stream.
	wantMac := []int{0, 3, 6, 9}
	if len(mac) != len(wantMac) {
		t.Fatalf("sampled mac events = %v, want %v", mac, wantMac)
	}
	for i := range wantMac {
		if mac[i] != wantMac[i] {
			t.Fatalf("sampled mac events = %v, want %v", mac, wantMac)
		}
	}
	if len(hand) != 2 || hand[0] != 0 || hand[1] != 3 {
		t.Fatalf("sampled handoff events = %v, want [0 3] (independent per-type phase)", hand)
	}
}

func TestDisabledAndActive(t *testing.T) {
	if Active(nil) {
		t.Error("Active(nil) = true")
	}
	if Active(Disabled) {
		t.Error("Active(Disabled) = true")
	}
	Disabled.Record(Event{Type: "x"}) // must not panic
	r := NewRing(1)
	if !Active(r) {
		t.Error("Active(ring) = false")
	}
	// A sampler over a disabled inner sink is itself inactive.
	if Active(NewSampler(2, Disabled)) {
		t.Error("Active(sampler(Disabled)) = true")
	}
}

// CountByType tallies events per type — the replay side of the
// "trace reproduces the metrics" acceptance check.
func CountByType(events []Event) map[string]uint64 {
	out := make(map[string]uint64)
	for _, ev := range events {
		out[ev.Type]++
	}
	return out
}
