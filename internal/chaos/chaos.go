// Package chaos is a deterministic fault-injection layer for the distributed
// DVDC runtime. It sits under internal/transport — a seeded wrapper around
// the raw net.Conn/net.Listener surface, wired in via the Dialer hook on
// transport.PoolOptions and the ListenFunc hook on transport.ListenWith —
// and can corrupt, drop and delay framed traffic per peer pair, partition
// pairs entirely, and record node-level kill/restart events driven by
// internal/failure schedules.
//
// Everything is driven by a single seed: each peer pair owns a *rand.Rand
// derived from (seed, src, dst), so fault draws on one pair never perturb
// another pair's stream. Probabilistic injection is reproducible up to
// goroutine interleaving *within* one pair; the one-shot Arm API is exactly
// reproducible — the soak harness arms faults at round boundaries from its
// own seeded plan, which makes a whole soak run replayable from its seed.
//
// A fault is decided once per written frame: wire.WriteFrame hands each
// message to the connection (wire.FrameObserver) before its first byte, so
// the injector sees the frame's type and length, never a byte stream it would
// have to re-frame. Fault semantics against the framed request/response
// protocol:
//
//   - Corrupt mangles a frame's length prefix past wire.MaxFrame, so the
//     receiver fails with a typed ErrFrame (a corrupted request makes the
//     server drop the connection; a corrupted response surfaces ErrFrame at
//     the caller). Either way transport.Pool must classify it as a
//     connection fault and retry over a fresh dial.
//   - Drop severs the connection instead of delivering the frame (a reset
//     mid-exchange), exercising the redial path.
//   - Delay sleeps before delivery, exercising deadline headroom.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"dvdc/internal/obs"
	"dvdc/internal/wire"
)

// Well-known node identities for traffic endpoints that are not daemons.
const (
	// Coordinator is the Src of coordinator-to-node traffic.
	Coordinator = -1
	// UnknownPeer marks an endpoint that could not be resolved to a node id
	// (e.g. the client side of a server-accepted connection).
	UnknownPeer = -2
)

// Kind enumerates injected fault kinds.
type Kind uint8

// Fault kinds. Corrupt..Partition act on traffic; Kill and Restart are
// node-level events the harness performs itself and records here so the
// fault log is the one complete account of a run.
const (
	Corrupt Kind = iota + 1
	Drop
	Delay
	Partition
	Kill
	Restart
	Slow
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Corrupt:
		return "corrupt"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Partition:
		return "partition"
	case Kill:
		return "kill"
	case Restart:
		return "restart"
	case Slow:
		return "slow"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// onNode reports whether a fault of this kind targets a node (Fault.Node)
// rather than a traffic pair.
func (k Kind) onNode() bool { return k == Kill || k == Restart || k == Slow }

// Pair identifies directed traffic src -> dst by node index (Coordinator for
// the control plane's client side, UnknownPeer when unresolvable).
type Pair struct {
	Src, Dst int
}

// String renders "src->dst".
func (p Pair) String() string { return fmt.Sprintf("%d->%d", p.Src, p.Dst) }

// Fault is one injected fault as recorded in the log.
type Fault struct {
	Round int    // harness round the fault fired in (see NextRound)
	Kind  Kind   // what was injected
	Pair  Pair   // traffic pair (unknown peers for Kill/Restart/Slow)
	Node  int    // Kill/Restart/Slow target (-1 otherwise)
	Armed bool   // fired from a one-shot Arm (vs. a probabilistic draw)
	Note  string // human detail ("delay 3ms", "frame 27 bytes")
}

// String renders one log line.
func (f Fault) String() string {
	s := fmt.Sprintf("round %d: %s", f.Round, f.Kind)
	if f.Kind.onNode() {
		s += fmt.Sprintf(" node %d", f.Node)
	} else {
		s += " " + f.Pair.String()
	}
	if f.Note != "" {
		s += " (" + f.Note + ")"
	}
	return s
}

// Config tunes probabilistic per-frame injection. All probabilities are per
// outbound frame on a faulted connection; the zero value injects nothing
// (only armed one-shots fire).
type Config struct {
	PCorrupt float64 // corrupt the frame's length prefix
	PDrop    float64 // sever the connection instead of delivering
	PDelay   float64 // sleep before delivering
}

// A Delay fault sleeps for a duration drawn from [delayMin, delayMax).
const (
	delayMin = time.Millisecond
	delayMax = 10 * time.Millisecond
)

// Active reports whether any probabilistic rate is set.
func (c Config) Active() bool {
	return c.PCorrupt > 0 || c.PDrop > 0 || c.PDelay > 0
}

// armedFault is one scheduled one-shot fault. msg, when nonzero, restricts
// the fault to frames of that wire message type: the fault waits, still
// armed, until such a frame crosses the pair.
type armedFault struct {
	kind Kind
	msg  wire.MsgType
}

// pairState is one peer pair's deterministic fault stream.
type pairState struct {
	rng   *rand.Rand
	armed []armedFault // one-shot faults, fired FIFO, one per frame
}

// Injector owns the fault state for one cluster run.
type Injector struct {
	seed int64
	cfg  Config

	mu          sync.Mutex
	round       int
	paused      bool
	pairs       map[Pair]*pairState
	partitioned map[Pair]bool
	slow        map[int]time.Duration
	nodeByAddr  map[string]int
	log         []Fault
	counters    *obs.CounterSet
	tracer      *obs.Tracer
}

// New builds an injector. cfg may be the zero value (armed faults only).
func New(seed int64, cfg Config) *Injector {
	return &Injector{
		seed:        seed,
		cfg:         cfg,
		pairs:       map[Pair]*pairState{},
		partitioned: map[Pair]bool{},
		slow:        map[int]time.Duration{},
		nodeByAddr:  map[string]int{},
		counters:    obs.NewCounterSet(),
	}
}

// Counters exposes per-kind fired-fault tallies.
func (i *Injector) Counters() *obs.CounterSet { return i.counters }

// SetTracer attaches a span tracer: every fired traffic fault becomes an
// instant trace event parented under the span of the RPC attempt it hit,
// making fault -> retry -> recovery causality visible in a round's trace,
// and every harness-level fault (a partition, a slowed, killed or restarted
// node) an instant root span in lane "chaos".
func (i *Injector) SetTracer(tr *obs.Tracer) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.tracer = tr
}

// Tracer returns the attached tracer (nil when tracing is off).
func (i *Injector) Tracer() *obs.Tracer {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.tracer
}

// Register maps a node's listen address so dialers can resolve Dst ids.
func (i *Injector) Register(node int, addr string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.nodeByAddr[addr] = node
}

// NextRound advances the round tag new faults are logged under and returns
// the new round index. The soak harness calls it once per checkpoint round
// so the fault log lines up with the soak's RoundRecord.
func (i *Injector) NextRound() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.round++
	return i.round
}

// Pause stops probabilistic injection (armed faults still fire). The soak
// harness pauses the injector during recovery, whose multi-step protocol is
// retried at the RPC level but not restartable as a whole.
func (i *Injector) Pause() { i.setPaused(true) }

// Resume re-enables probabilistic injection.
func (i *Injector) Resume() { i.setPaused(false) }

func (i *Injector) setPaused(v bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.paused = v
}

// Arm schedules a one-shot fault on a pair: the next frame written on that
// pair fires it, regardless of Pause. Armed faults fire FIFO.
func (i *Injector) Arm(p Pair, k Kind) { i.ArmMsg(p, k, 0) }

// ArmMsg schedules a one-shot fault that fires only on a frame whose wire
// message type is msg (0 = any frame). The soak harness uses this to aim
// faults at individual data-path chunks (MsgDeltaChunk) rather than whatever
// control frame happens to cross the pair first. A filtered fault at the
// head of the FIFO holds the queue until a matching frame appears.
func (i *Injector) ArmMsg(p Pair, k Kind, msg wire.MsgType) {
	i.mu.Lock()
	defer i.mu.Unlock()
	ps := i.pair(p)
	ps.armed = append(ps.armed, armedFault{kind: k, msg: msg})
}

// ArmedPending reports how many armed faults have not fired yet (across all
// pairs); the harness uses it to verify its plan was consumed.
func (i *Injector) ArmedPending() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	n := 0
	for _, ps := range i.pairs {
		n += len(ps.armed)
	}
	return n
}

// PartitionPair severs traffic between two nodes in both directions: live
// connections die on their next I/O and dials are refused.
func (i *Injector) PartitionPair(a, b int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.partitioned[Pair{a, b}] = true
	i.partitioned[Pair{b, a}] = true
	i.record(Fault{Round: i.round, Kind: Partition, Pair: Pair{a, b}})
}

// HealPair removes a partition.
func (i *Injector) HealPair(a, b int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	delete(i.partitioned, Pair{a, b})
	delete(i.partitioned, Pair{b, a})
}

// SlowNode imposes a sustained per-frame delay on every bulk data frame
// (wire.MsgType.Bulk — delta ships, image and parity transfers) destined to
// the node, until HealNode — the "habitually slow peer" the health engine's
// round-time SLO must catch and the adaptive keeper-rebalance rule must
// drain. The model is data-plane ingest congestion: the node's disk or NIC
// queues every member's delta stream, so writers stall per bulk frame they
// send it, while control frames (prepare, commit, acks) and the node's own
// sends are unaffected. That is what makes the condition *adaptable*:
// re-homing parity off the node removes the queued traffic, where a
// control-plane stall would be an irreducible per-round floor no placement
// change could fix. Unlike armed one-shots it is a standing condition (like
// a partition): it applies regardless of Pause and is logged once at call
// time, not per frame, so the fault log stays deterministic across
// timing-dependent retry counts.
func (i *Injector) SlowNode(node int, d time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if d <= 0 {
		delete(i.slow, node)
		return
	}
	i.slow[node] = d
	i.record(Fault{Round: i.round, Kind: Slow, Node: node, Pair: Pair{UnknownPeer, UnknownPeer}, Note: fmt.Sprintf("delay %v/frame", d)})
}

// HealNode lifts a SlowNode delay.
func (i *Injector) HealNode(node int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	delete(i.slow, node)
}

// SlowDelay returns the standing ingest delay for frames on a pair: the
// destination endpoint's SlowNode delay (zero when the destination is not
// slowed, or is unresolvable — a server writing replies cannot know which
// peer dialed, and replies are not ingest traffic).
func (i *Injector) SlowDelay(p Pair) time.Duration {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.slow[p.Dst]
}

// Partitioned reports whether a pair is currently severed.
func (i *Injector) Partitioned(p Pair) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.partitioned[p]
}

// RecordKill logs a node-level kill the harness performed.
func (i *Injector) RecordKill(node int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.record(Fault{Round: i.round, Kind: Kill, Node: node, Pair: Pair{UnknownPeer, UnknownPeer}})
}

// RecordRestart logs a node-level restart the harness performed.
func (i *Injector) RecordRestart(node int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.record(Fault{Round: i.round, Kind: Restart, Node: node, Pair: Pair{UnknownPeer, UnknownPeer}})
}

// Log returns a copy of every fault fired so far, in firing order.
func (i *Injector) Log() []Fault {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Fault(nil), i.log...)
}

// Fired counts fired faults of the given kinds (all kinds when none given),
// optionally restricted to one round (round < 0 means any).
func (i *Injector) Fired(round int, kinds ...Kind) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	n := 0
	for _, f := range i.log {
		if round >= 0 && f.Round != round {
			continue
		}
		if len(kinds) == 0 {
			n++
			continue
		}
		for _, k := range kinds {
			if f.Kind == k {
				n++
				break
			}
		}
	}
	return n
}

// record appends to the log and bumps counters. A harness-level fault
// (Partition and the node kinds) hits no frame, so no RPC's trace carries it:
// it becomes an instant root span of its own. Callers hold i.mu.
func (i *Injector) record(f Fault) {
	if !f.Kind.onNode() && f.Node == 0 {
		f.Node = -1
	}
	i.log = append(i.log, f)
	i.counters.Add(f.Kind.String(), 1)
	if i.tracer != nil && f.Kind >= Partition {
		kv := []string{"pair", f.Pair.String(), "round", strconv.Itoa(f.Round)}
		if f.Kind.onNode() {
			kv[0], kv[1] = "node", fmt.Sprintf("node%d", f.Node)
		}
		if f.Note != "" {
			kv = append(kv, "note", f.Note)
		}
		i.tracer.Mark("chaos."+f.Kind.String(), "chaos", kv...)
	}
}

// pair returns (creating) a pair's state. Callers hold i.mu.
func (i *Injector) pair(p Pair) *pairState {
	ps, ok := i.pairs[p]
	if !ok {
		ps = &pairState{rng: rand.New(rand.NewSource(pairSeed(i.seed, p)))}
		i.pairs[p] = ps
	}
	return ps
}

// pairSeed derives a per-pair seed via splitmix64 so adjacent pairs get
// uncorrelated streams.
func pairSeed(seed int64, p Pair) int64 {
	z := uint64(seed) ^ (uint64(uint32(int32(p.Src))) << 32) ^ uint64(uint32(int32(p.Dst)))
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// decision is the outcome of one frame's draw.
type decision struct {
	kind  Kind // 0 = deliver untouched
	delay time.Duration
	armed bool
}

// frameFault draws the fault (if any) for a frame of type t, frameBytes long,
// on a pair and logs it. Exactly one rng call decides the kind (plus one more
// for a delay duration), keeping per-pair streams stable. An armed fault whose
// message-type filter does not match t stays armed for the next frame.
func (i *Injector) frameFault(p Pair, frameBytes int, t wire.MsgType) decision {
	i.mu.Lock()
	defer i.mu.Unlock()
	ps := i.pair(p)
	var d decision
	if len(ps.armed) > 0 {
		head := ps.armed[0]
		if head.msg != 0 && head.msg != t {
			return d
		}
		d.kind = head.kind
		ps.armed = ps.armed[1:]
		d.armed = true
	} else if !i.paused && i.cfg.Active() {
		u := ps.rng.Float64()
		switch {
		case u < i.cfg.PCorrupt:
			d.kind = Corrupt
		case u < i.cfg.PCorrupt+i.cfg.PDrop:
			d.kind = Drop
		case u < i.cfg.PCorrupt+i.cfg.PDrop+i.cfg.PDelay:
			d.kind = Delay
		}
	}
	if d.kind == 0 {
		return d
	}
	note := fmt.Sprintf("%s frame, %d bytes", t, frameBytes)
	if d.kind == Delay {
		d.delay = delayMin + time.Duration(ps.rng.Int63n(int64(delayMax-delayMin)))
		note = fmt.Sprintf("delay %v, %s", d.delay.Round(time.Microsecond), note)
	}
	i.record(Fault{Round: i.round, Kind: d.kind, Pair: p, Armed: d.armed, Note: note})
	return d
}

// nodeOf resolves a dialed address to a node id (UnknownPeer if unknown).
func (i *Injector) nodeOf(addr string) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	if n, ok := i.nodeByAddr[addr]; ok {
		return n
	}
	return UnknownPeer
}

// Dialer returns a transport dial hook for traffic originating at src
// (Coordinator for the control plane). The returned function matches
// transport.DialFunc. Dials to a partitioned peer are refused; established
// connections carry the pair's fault stream.
func (i *Injector) Dialer(src int) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		p := Pair{Src: src, Dst: i.nodeOf(addr)}
		if i.Partitioned(p) {
			i.counters.Add("dial-refused", 1)
			return nil, fmt.Errorf("chaos: dial %s: pair %s partitioned", addr, p)
		}
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return newFaultConn(c, i, p), nil
	}
}

// ListenFunc returns a transport listen hook for a node daemon: every
// accepted connection carries the fault stream of pair (node, UnknownPeer) —
// the server writes responses and cannot resolve which peer dialed, but
// server-side injection (corrupted/dropped/delayed responses) does not need
// to. The returned function matches transport.ListenFunc.
func (i *Injector) ListenFunc(node int) func(addr string) (net.Listener, error) {
	return func(addr string) (net.Listener, error) {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &faultListener{Listener: ln, inj: i, node: node}, nil
	}
}

// faultListener wraps accepted connections with the injector's fault stream.
type faultListener struct {
	net.Listener
	inj  *Injector
	node int
}

// Accept implements net.Listener.
func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newFaultConn(c, l.inj, Pair{Src: l.node, Dst: UnknownPeer}), nil
}
