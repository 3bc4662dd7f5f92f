package des

import (
	"testing"
	"time"
)

func TestScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", got)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("clock = %v, want 3s", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []time.Duration
	e.Schedule(time.Second, func() {
		times = append(times, e.Now())
		e.Schedule(time.Second, func() {
			times = append(times, e.Now())
		})
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Errorf("times = %v", times)
	}
}

func TestRunLimit(t *testing.T) {
	e := New()
	var rearm func()
	rearm = func() { e.Schedule(time.Millisecond, rearm) }
	e.Schedule(0, rearm)
	n, err := e.Run(100)
	if err == nil {
		t.Error("runaway loop should error at the limit")
	}
	if n != 100 {
		t.Errorf("fired %d events, want 100", n)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		e.Schedule(d, func() { got = append(got, d) })
	}
	fired := e.RunUntil(2 * time.Second)
	if fired != 2 || len(got) != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("clock = %v, want 2s", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	// Drain the rest.
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("total fired = %d, want 4", len(got))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(5 * time.Second)
	if e.Now() != 5*time.Second {
		t.Errorf("clock = %v, want 5s", e.Now())
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	e := New()
	e.Schedule(time.Second, func() {
		e.Schedule(-time.Hour, func() {
			if e.Now() != time.Second {
				t.Errorf("clock = %v, want 1s", e.Now())
			}
		})
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestAtBeforeNowClamps(t *testing.T) {
	e := New()
	e.Schedule(2*time.Second, func() {
		e.At(time.Second, func() {
			if e.Now() != 2*time.Second {
				t.Errorf("clock went backwards to %v", e.Now())
			}
		})
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil event function should panic")
		}
	}()
	New().Schedule(0, nil)
}

func TestStepEmpty(t *testing.T) {
	if New().Step() {
		t.Error("Step on empty engine should report false")
	}
}
