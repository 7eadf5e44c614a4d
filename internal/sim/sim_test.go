package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Errorf("Now = %v, want 0", e.Now())
	}
	if e.Step() {
		t.Error("fresh engine should have no pending events")
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("final time %v, want 3", e.Now())
	}
}

func TestSameTimeEventsRunFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var at float64 = -1
	e.At(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 15 {
		t.Errorf("After fired at %v, want 15", at)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := New()
	fired := false
	tm := e.At(1, func() { fired = true })
	tm.Cancel()
	e.Run()
	if fired {
		t.Error("cancelled timer fired")
	}
}

func TestCancelFromInsideEarlierEvent(t *testing.T) {
	e := New()
	fired := false
	later := e.At(2, func() { fired = true })
	e.At(1, func() { later.Cancel() })
	e.Run()
	if fired {
		t.Error("timer cancelled at t=1 still fired at t=2")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	e.At(5, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After should panic")
		}
	}()
	e.After(-1, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("nil callback should panic")
		}
	}()
	e.At(1, nil)
}

func TestHaltStopsRun(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(float64(i), func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("ran %d events after Halt, want 3", count)
	}
	if e.Step() || count != 3 {
		t.Errorf("a halted engine stepped: ran %d events", count)
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain where each event schedules the next; models the
	// checkpoint-interval loops built on the engine.
	e := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 100 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run()
	if n != 100 {
		t.Errorf("ticks = %d, want 100", n)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want 100", e.Now())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		e := New()
		rng := rand.New(rand.NewSource(12345))
		var times []float64
		var tick func()
		tick = func() {
			times = append(times, e.Now())
			if len(times) < 200 {
				e.After(rng.ExpFloat64(), tick)
			}
		}
		e.After(0, tick)
		e.Run()
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v != %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of event times, execution order is sorted.
func TestQuickExecutionOrderSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []float64
		for _, r := range raw {
			at := float64(r)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
