package obs

import (
	"sync"
	"testing"
)

func TestRingFIFOAndEviction(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	r.Push(1)
	r.Push(2)
	if got, want := r.Len(), 2; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	r.Push(3)
	r.Push(4) // evicts 1
	r.Push(5) // evicts 2
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0] != 3 || snap[1] != 4 || snap[2] != 5 {
		t.Fatalf("snapshot = %v, want [3 4 5]", snap)
	}
	if got, want := r.Dropped(), int64(2); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
}

func TestRingZeroSizeClamped(t *testing.T) {
	r := NewRing[string](0)
	r.Push("a")
	r.Push("b")
	if snap := r.Snapshot(); len(snap) != 1 || snap[0] != "b" {
		t.Fatalf("snapshot = %v, want [b]", snap)
	}
	if r.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", r.Dropped())
	}
}

func TestRingNilSafe(t *testing.T) {
	var r *Ring[int]
	r.Push(1)
	if r.Len() != 0 || r.Dropped() != 0 || r.Snapshot() != nil {
		t.Fatal("nil ring must be a no-op")
	}
}

func TestRingConcurrentPush(t *testing.T) {
	const (
		workers = 8
		per     = 1000
		size    = 64
	)
	r := NewRing[int](size)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Push(i)
			}
		}()
	}
	wg.Wait()
	if got, want := r.Len(), size; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got, want := r.Dropped(), int64(workers*per-size); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
}

func TestTracerRingBoundsSpans(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Start(SpanContext{}, "s", "lane").Finish()
	}
	if got, want := len(tr.Spans()), 4; got != want {
		t.Fatalf("ring holds %d spans, want %d", got, want)
	}
	if got, want := tr.Dropped(), int64(6); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
}

func TestTracerTap(t *testing.T) {
	tr := NewTracer(16)
	var got []Span
	tr.SetTap(func(s Span) { got = append(got, s) })
	tr.Start(SpanContext{}, "a", "l").Finish()
	tr.Start(SpanContext{}, "b", "l").Finish()
	tr.SetTap(nil)
	tr.Start(SpanContext{}, "c", "l").Finish()
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("tap saw %v, want spans a, b", got)
	}
}
