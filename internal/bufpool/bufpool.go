// Package bufpool is a size-classed []byte pool for the checkpoint data
// path. Steady-state rounds move batch- and frame-sized buffers through the
// ship path, the wire codec and the streaming restore; allocating those
// fresh every round makes the garbage collector the bottleneck at production
// scale. (A keeper's parity pages are not pooled here: each keeper keeps its
// own free list of them, core.MKeeper.) The pool hands out buffers from
// power-of-two size classes, so a buffer freed by one round is reused by the
// next.
//
// Classes are bounded free lists, not sync.Pools: storing a []byte in a
// sync.Pool boxes the slice header into an interface, which costs one heap
// allocation per Put — on a path whose whole point is not allocating, the
// pool itself was the top allocator in the profile. Each class retains at
// most ~maxClassBytes; overflow is dropped to the GC, so a burst cannot pin
// unbounded memory.
//
// Ownership is explicit: Get transfers a buffer to the caller, Put returns
// it. A buffer that is never Put is simply garbage — the free list only
// holds what was explicitly returned — so callers only Put where ownership
// is provably exclusive. After a Put the buffer must not be touched: a
// retained alias corrupts whoever draws it next.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size-class bounds. Requests below the smallest class round up to it;
// requests above the largest are plain allocations (Put drops them) so the
// pool never pins arbitrarily large buffers.
const (
	minShift = 9  // 512 B
	maxShift = 25 // 32 MiB
	classes  = maxShift - minShift + 1

	// Retention bounds per class: at most maxClassBufs buffers and at most
	// ~maxClassBytes of backing memory, whichever is smaller. The buffer cap
	// binds only the small classes, whose traffic is per message (frame heads,
	// control payloads, a lightly dirtied member's batch); no round keeps a page-class
	// buffer per dirty page any more, so it is generous rather than load
	// bearing. The byte cap is the binding bound for the large classes: a
	// round's batch buffers and received frames sit in the 256 KiB class.
	maxClassBufs  = 4096
	maxClassBytes = 64 << 20
)

// classPool is one size class's bounded free list.
type classPool struct {
	mu   sync.Mutex
	bufs [][]byte
}

var pools [classes]classPool

// classLimit caps how many buffers class c retains.
func classLimit(c int) int {
	n := maxClassBytes >> (c + minShift)
	if n < 4 {
		return 4
	}
	if n > maxClassBufs {
		return maxClassBufs
	}
	return n
}

// Counters for observability; exported via Stats and mounted as gauges by
// the runtime's registry.
var (
	gets     atomic.Int64 // Get calls served from a size class
	misses   atomic.Int64 // class Gets that had to allocate
	puts     atomic.Int64 // buffers returned to a class
	oversize atomic.Int64 // Gets larger than the biggest class (not pooled)
)

// Stats is a snapshot of the pool's counters.
type Stats struct {
	Gets     int64 // pooled Get calls
	Misses   int64 // pooled Gets that allocated fresh
	Puts     int64 // buffers returned
	Oversize int64 // Gets beyond the largest class (unpooled)
}

// Snapshot reads the counters.
func Snapshot() Stats {
	return Stats{
		Gets:     gets.Load(),
		Misses:   misses.Load(),
		Puts:     puts.Load(),
		Oversize: oversize.Load(),
	}
}

// class maps a byte count to its size-class index, or -1 when unpooled.
func class(n int) int {
	if n <= 0 {
		return 0
	}
	s := bits.Len(uint(n - 1)) // ceil(log2 n)
	if s < minShift {
		return 0
	}
	if s > maxShift {
		return -1
	}
	return s - minShift
}

// Get returns a buffer of length n with undefined contents. Capacity is the
// class size, so append within the class never reallocates.
func Get(n int) []byte {
	c := class(n)
	if c < 0 {
		oversize.Add(1)
		return make([]byte, n)
	}
	gets.Add(1)
	p := &pools[c]
	p.mu.Lock()
	if k := len(p.bufs); k > 0 {
		b := p.bufs[k-1]
		p.bufs[k-1] = nil
		p.bufs = p.bufs[:k-1]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	misses.Add(1)
	return make([]byte, n, 1<<(c+minShift))
}

// Put returns a buffer obtained from Get. Buffers whose capacity is not an
// exact class size (or beyond the largest class) are dropped, so Put is safe
// to call on any buffer the caller owns; a class already holding its
// retention limit drops the buffer to the GC.
func Put(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	s := bits.Len(uint(c)) - 1
	if s < minShift || s > maxShift {
		return
	}
	p := &pools[s-minShift]
	p.mu.Lock()
	if len(p.bufs) < classLimit(s-minShift) {
		p.bufs = append(p.bufs, b[:c])
		puts.Add(1)
	}
	p.mu.Unlock()
}
