// Package des is a small discrete-event simulation engine: an event
// queue ordered by virtual time with deterministic FIFO tie-breaking.
// The distributed-protocol simulation (internal/netsim) runs on it,
// standing in for the ns-2 testbed the paper used.
package des

import (
	"container/heap"
	"fmt"
	"time"
)

// Engine owns the virtual clock and the pending event queue. The zero
// value is not usable; call New. Engines are not safe for concurrent
// use — a simulation is a single logical thread.
type Engine struct {
	now   time.Duration
	queue eventQueue
	seq   uint64
}

// New returns an engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule runs fn after delay of virtual time. Negative delays fire
// immediately (at the current time). Events at the same instant fire
// in scheduling order.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t; times before now clamp to now.
func (e *Engine) At(t time.Duration, fn func()) {
	if fn == nil {
		panic("des: nil event function")
	}
	if t < e.now {
		t = e.now
	}
	heap.Push(&e.queue, &event{time: t, seq: e.seq, fn: fn})
	e.seq++
}

// Step fires the next event. It reports whether an event fired.
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.time
	ev.fn()
	return true
}

// Run fires events until the queue drains or limit events have fired
// (limit <= 0 means no limit). It returns the number of events fired
// and an error when the limit was hit with work remaining — almost
// always a runaway self-rescheduling loop.
func (e *Engine) Run(limit int) (int, error) {
	fired := 0
	for {
		if limit > 0 && fired >= limit {
			if e.Pending() > 0 {
				return fired, fmt.Errorf("des: event limit %d hit with %d events pending", limit, e.Pending())
			}
			return fired, nil
		}
		if !e.Step() {
			return fired, nil
		}
		fired++
	}
}

// RunUntil fires events with time <= deadline, leaving later events
// queued, and returns the number fired. The clock ends at deadline if
// the queue drained earlier than that.
func (e *Engine) RunUntil(deadline time.Duration) int {
	fired := 0
	for e.queue.Len() > 0 && e.queue[0].time <= deadline {
		e.Step()
		fired++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return fired
}

// event is one queue entry.
type event struct {
	time time.Duration
	seq  uint64
	fn   func()
}

// eventQueue is a min-heap on (time, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

// Push implements heap.Interface.
func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

// Pop implements heap.Interface.
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
