package failure

import (
	"container/heap"
	"fmt"
	"math"
)

// Event is one node failure drawn from a NodeSchedule.
type Event struct {
	Time float64 // absolute seconds
	Node int     // physical node index
}

// NodeSchedule merges independent per-node failure processes into one
// time-ordered stream of (time, node) events. This models the paper's key
// correlation structure: VMs fail together exactly when their physical host
// does, while distinct hosts fail independently.
type NodeSchedule struct {
	procs []Process
	queue eventHeap
}

// NewNodeSchedule builds a schedule over one failure process per node.
func NewNodeSchedule(procs []Process) (*NodeSchedule, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("failure: node schedule needs at least one process")
	}
	s := &NodeSchedule{procs: procs}
	s.prime()
	return s, nil
}

// NewPoissonNodes is a convenience constructor: n independent Poisson
// processes with a per-node MTBF, seeded deterministically from seed.
func NewPoissonNodes(n int, mtbfSeconds float64, seed int64) (*NodeSchedule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("failure: need n > 0 nodes, got %d", n)
	}
	procs := make([]Process, n)
	for i := range procs {
		p, err := NewPoissonMTBF(mtbfSeconds, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		procs[i] = p
	}
	return NewNodeSchedule(procs)
}

func (s *NodeSchedule) prime() {
	s.queue = s.queue[:0]
	for i, p := range s.procs {
		t := p.Next()
		if !math.IsInf(t, 1) {
			s.queue = append(s.queue, Event{Time: t, Node: i})
		}
	}
	heap.Init(&s.queue)
}

// Next pops the earliest pending node failure. When every underlying process
// is exhausted it returns an Event with Time = +Inf.
func (s *NodeSchedule) Next() Event {
	if len(s.queue) == 0 {
		return Event{Time: math.Inf(1), Node: -1}
	}
	ev := heap.Pop(&s.queue).(Event)
	if t := s.procs[ev.Node].Next(); !math.IsInf(t, 1) {
		heap.Push(&s.queue, Event{Time: t, Node: ev.Node})
	}
	return ev
}

// Reset restarts every per-node process and re-primes the queue.
func (s *NodeSchedule) Reset() {
	for _, p := range s.procs {
		p.Reset()
	}
	s.prime()
}

type eventHeap []Event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].Time < h[j].Time }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
