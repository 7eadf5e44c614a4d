package obs

import "sync"

// Ring is a bounded FIFO buffer that evicts oldest-first when full and
// counts what it evicted. It backs everything in the observability layer
// that must not grow without bound on a long run: the tracer's finished-span
// buffer (served by /spans and dumped into postmortem bundles) and the
// outlier tracker's per-peer latency windows. Safe for concurrent use; a nil
// *Ring drops everything.
type Ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	next    int
	full    bool
	dropped int64
}

// NewRing builds a ring holding at most size elements (size <= 0 picks 1).
func NewRing[T any](size int) *Ring[T] {
	if size <= 0 {
		size = 1
	}
	return &Ring[T]{buf: make([]T, size)}
}

// Push appends v, evicting the oldest element when the ring is full.
func (r *Ring[T]) Push(v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// Len returns how many elements the ring currently holds.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Dropped returns how many elements were evicted to make room.
func (r *Ring[T]) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Filter copies the elements keep reports true for, oldest first, without
// materializing the rest. The predicate sees a pointer into the ring's own
// storage and must not retain it past the call; only matches are copied out.
// This is the per-trace span lookup's fast path: a long run's ring holds
// dozens of rounds of spans, and copying them all to keep a few hundred put
// an O(retained-spans) term in every round.
func (r *Ring[T]) Filter(keep func(*T) bool) []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []T
	if r.full {
		for i := r.next; i < len(r.buf); i++ {
			if keep(&r.buf[i]) {
				out = append(out, r.buf[i])
			}
		}
	}
	for i := 0; i < r.next; i++ {
		if keep(&r.buf[i]) {
			out = append(out, r.buf[i])
		}
	}
	return out
}

// Snapshot copies the ring's contents, oldest first.
func (r *Ring[T]) Snapshot() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []T
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	return out
}
