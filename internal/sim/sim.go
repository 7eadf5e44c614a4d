// Package sim is a small deterministic discrete-event simulation engine.
//
// Every higher-level model in this repository (the DVDC engine, the
// disk-full baseline, Remus, the Monte-Carlo corroboration of the paper's
// analytical model) runs on this engine: a virtual clock in float64 seconds,
// a binary-heap event queue with FIFO tie-breaking, and cancellable timers.
// Given the same schedule of calls, a simulation replays bit-identically,
// which the test suite relies on.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all callbacks run on the caller's goroutine inside Step
// or Run.
type Engine struct {
	now    float64
	queue  timerHeap
	seq    uint64
	halted bool
}

// New creates an engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Timer is a handle to a scheduled event; Cancel prevents a pending timer
// from firing.
type Timer struct {
	at        float64
	seq       uint64
	fn        func()
	cancelled bool
}

// Cancel marks the timer so it will not fire. Cancelling an already-fired or
// already-cancelled timer is a no-op.
func (t *Timer) Cancel() { t.cancelled = true }

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it always indicates a model bug, and silently reordering time
// would corrupt every downstream measurement.
func (e *Engine) At(at float64, fn func()) *Timer {
	if math.IsNaN(at) {
		panic("sim: scheduling at NaN")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	t := &Timer{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, t)
	return t
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (e *Engine) After(d float64, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Step executes the next pending event, advancing the clock to its time.
// It returns false when the queue is empty or the engine has been halted.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		if e.halted {
			return false
		}
		t := heap.Pop(&e.queue).(*Timer)
		if t.cancelled {
			continue
		}
		e.now = t.at
		t.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty or Halt is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Halt stops Run after the current event returns. Subsequent Step calls
// return false.
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether the engine is halted.
func (e *Engine) Halted() bool { return e.halted }

// timerHeap orders timers by time, breaking ties by scheduling order so
// same-time events run FIFO (deterministic replay).
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*Timer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
