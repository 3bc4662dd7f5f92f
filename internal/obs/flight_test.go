package obs

import (
	"sync"
	"testing"
)

func TestFlightRecorderBasic(t *testing.T) {
	f := NewFlightRecorder(4, []string{"apply", "reduce"}, []string{"", "join", "leave"})
	f.Record(SpanData{Stage: 0, Kind: 1, User: 7, Seq: 1, StartNS: 100, DurNS: 50})
	f.Record(SpanData{Stage: 1, User: -1, Seq: 2, StartNS: 200, DurNS: 10})
	d := f.Snapshot()
	if d.Total != 2 || d.Capacity != 4 {
		t.Fatalf("Total=%d Capacity=%d, want 2, 4", d.Total, d.Capacity)
	}
	if len(d.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(d.Spans))
	}
	s := d.Spans[0]
	if s.Stage != "apply" || s.Kind != "join" || s.User != 7 ||
		s.Seq != 1 || s.StartNS != 100 || s.DurNS != 50 || s.Open {
		t.Fatalf("span 0 mangled: %+v", s)
	}
	if d.Spans[1].Stage != "reduce" || d.Spans[1].Kind != "" || d.Spans[1].User != -1 {
		t.Fatalf("span 1 mangled: %+v", d.Spans[1])
	}
	if len(d.Open) != 0 {
		t.Fatalf("unexpected open spans: %+v", d.Open)
	}
}

func TestFlightRecorderEviction(t *testing.T) {
	f := NewFlightRecorder(4, []string{"apply"}, nil)
	for i := 1; i <= 10; i++ {
		f.Record(SpanData{Seq: uint64(i)})
	}
	d := f.Snapshot()
	if d.Total != 10 {
		t.Fatalf("Total=%d, want 10", d.Total)
	}
	if len(d.Spans) != 4 {
		t.Fatalf("got %d spans, want the last 4", len(d.Spans))
	}
	for i, s := range d.Spans {
		if want := uint64(7 + i); s.Seq != want {
			t.Fatalf("span %d has seq %d, want %d (oldest-first)", i, s.Seq, want)
		}
	}
}

func TestFlightRecorderOpenSpans(t *testing.T) {
	f := NewFlightRecorder(8, []string{"apply"}, []string{"", "move"})
	f.Begin(SpanData{Kind: 1, User: 1, Seq: 42, StartNS: 10})
	d := f.Snapshot()
	if len(d.Open) != 1 || !d.Open[0].Open || d.Open[0].Seq != 42 {
		t.Fatalf("open span not visible: %+v", d.Open)
	}
	if len(d.Spans) != 0 {
		t.Fatalf("no completed spans expected, got %+v", d.Spans)
	}
	f.End(SpanData{Kind: 1, User: 1, Seq: 42, StartNS: 10, DurNS: 30})
	d = f.Snapshot()
	if len(d.Open) != 0 {
		t.Fatalf("End left an open span: %+v", d.Open)
	}
	if len(d.Spans) != 1 || d.Spans[0].Seq != 42 || d.Spans[0].DurNS != 30 {
		t.Fatalf("End did not complete the span: %+v", d.Spans)
	}
	// Begin replacing a prior open span keeps only the newest.
	f.Begin(SpanData{Seq: 1})
	f.Begin(SpanData{Seq: 2})
	d = f.Snapshot()
	if len(d.Open) != 1 || d.Open[0].Seq != 2 {
		t.Fatalf("re-Begin should replace: %+v", d.Open)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Record(SpanData{})
	f.Begin(SpanData{})
	f.End(SpanData{})
	if f.Total() != 0 || f.Capacity() != 0 {
		t.Fatal("nil recorder should report zeros")
	}
	if d := f.Snapshot(); len(d.Spans) != 0 || len(d.Open) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", d)
	}
}

// TestFlightRecorderConcurrent runs one writer against several
// concurrent snapshot readers — torn slots must be dropped, never
// mangled, and completed spans come back oldest-first. Runs under
// -race via scripts/check.sh.
func TestFlightRecorderConcurrent(t *testing.T) {
	const spans, readers = 8000, 4
	f := NewFlightRecorder(64, []string{"apply"}, nil)
	stop := make(chan struct{})
	var wg, ready sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			for {
				d := f.Snapshot()
				// Every published span is internally consistent:
				// StartNS == Seq == DurNS by construction below.
				for i, s := range append(d.Spans, d.Open...) {
					if s.StartNS != int64(s.Seq) || (!s.Open && s.DurNS != int64(s.Seq)) {
						t.Errorf("torn span leaked: %+v", s)
						return
					}
					if i > 0 && i < len(d.Spans) && s.Seq <= d.Spans[i-1].Seq {
						t.Errorf("spans out of order: %d after %d", s.Seq, d.Spans[i-1].Seq)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	ready.Wait()
	for seq := uint64(1); seq <= spans; seq++ {
		f.Begin(SpanData{Seq: seq, StartNS: int64(seq)})
		f.End(SpanData{Seq: seq, StartNS: int64(seq), DurNS: int64(seq)})
	}
	close(stop)
	wg.Wait()
	if got := f.Total(); got != spans {
		t.Fatalf("Total=%d, want %d", got, spans)
	}
}

func TestSpanRecordsTrace(t *testing.T) {
	ring := NewRing(8)
	sp := StartSpan(ring, Event{Algo: "engine", Kind: "validate", AP: 2, N: 10}, 1_000)
	sp.End(3_500)
	evs := ring.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Type != EvSpan || ev.Kind != "validate" || ev.AP != 2 || ev.N != 10 {
		t.Fatalf("span event mangled: %+v", ev)
	}
	if want := 2.5e-6; ev.Value != want {
		t.Fatalf("Value=%g, want %g", ev.Value, want)
	}
	// Inert spans: nil or disabled recorder records nothing, End is safe.
	StartSpan(nil, Event{}, 0).End(10)
	StartSpan(Disabled, Event{}, 0).End(10)
	var zero Span
	zero.End(5)
	if ring.Total() != 1 {
		t.Fatalf("inert spans recorded: total=%d", ring.Total())
	}
}
