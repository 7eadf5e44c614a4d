// Package obs is the runtime's dependency-light observability core: a span
// tracer whose trace ids ride the wire protocol's message headers, a metrics
// registry of counters/gauges/histograms with Prometheus text exposition, and
// a flight recorder that dumps postmortem bundles. Span trees are built and
// rendered by package collect. Everything is plain stdlib and safe for
// concurrent use; every entry point tolerates a nil receiver so instrumented
// code needs no "is observability on?" branches.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext names a position in a trace: the trace id shared by every span
// of one protocol round, and the span id of the immediate parent. The zero
// value means "untraced"; it propagates through instrumented code as a no-op.
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context belongs to a real trace.
func (c SpanContext) Valid() bool { return c.Trace != 0 }

// Event is an instantaneous annotation on a span (a fault injection, a
// shipped delta).
type Event struct {
	Time  time.Time         `json:"time"`
	Name  string            `json:"name"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Span is one finished span as stored in the ring and emitted to the JSONL
// sink. Instantaneous events emitted via Tracer.Event become spans whose
// Start equals End.
type Span struct {
	Trace  uint64            `json:"trace"`
	ID     uint64            `json:"span"`
	Parent uint64            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Lane   string            `json:"lane,omitempty"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	Events []Event           `json:"events,omitempty"`
	Err    string            `json:"err,omitempty"`
}

// Duration returns the span's wall-clock extent (0 for instant events).
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Instant reports whether the span is a point event rather than an interval.
func (s Span) Instant() bool { return !s.End.After(s.Start) }

// Tracer mints span ids, keeps the most recent finished spans in a fixed
// ring, and optionally streams every finished span to a JSONL sink. A nil
// *Tracer is a valid no-op tracer: Start/Child/Event return nil/do nothing.
type Tracer struct {
	idBase uint64
	idSeq  atomic.Uint64
	open   atomic.Int64

	ring *Ring[Span]

	mu      sync.Mutex
	sink    *bufio.Writer
	sinkErr error
	tap     func(Span)
}

// NewTracer builds a tracer whose ring keeps the last ringSize finished
// spans (<= 0 picks 8192). The ring is a hard bound on what /spans can ever
// serve: when it wraps, the oldest spans are evicted and counted (Dropped).
func NewTracer(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = 8192
	}
	// Ids mix a random per-process base with a sequence so they are unique in
	// process and unlikely to collide across processes writing one sink.
	return &Tracer{idBase: rand.Uint64(), ring: NewRing[Span](ringSize)} //nolint:gosec
}

// Dropped returns how many finished spans the ring evicted oldest-first to
// stay within its bound (exported as dvdc_spans_dropped_total).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.ring.Dropped()
}

// SetTap attaches a function called with every subsequently finished span
// (nil detaches). A tracer has one tap; it runs on the finishing goroutine
// and must be fast.
func (t *Tracer) SetTap(fn func(Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tap = fn
	t.mu.Unlock()
}

// SetSink streams every subsequently finished span to w as one JSON object
// per line. Pass nil to detach. The first write error is sticky (SinkErr);
// later spans still land in the ring.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sink != nil {
		t.sink.Flush() //nolint:errcheck
	}
	if w == nil {
		t.sink = nil
		return
	}
	t.sink = bufio.NewWriter(w)
}

// Flush flushes the JSONL sink (no-op without one).
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sink == nil {
		return t.sinkErr
	}
	if err := t.sink.Flush(); err != nil && t.sinkErr == nil {
		t.sinkErr = err
	}
	return t.sinkErr
}

// SinkErr returns the first error the JSONL sink hit (nil if none).
func (t *Tracer) SinkErr() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}

// newID mints a process-unique non-zero id.
func (t *Tracer) newID() uint64 {
	n := t.idSeq.Add(1)
	z := t.idBase + n*0x9e3779b97f4a7c15
	z ^= z >> 31
	if z == 0 {
		z = n
	}
	return z
}

// Start opens a span. With an invalid parent the span roots a fresh trace
// (its trace id doubles as the round's trace id); with a valid parent it
// joins that trace as a child. Returns nil on a nil tracer.
func (t *Tracer) Start(parent SpanContext, name, lane string) *Active {
	if t == nil {
		return nil
	}
	id := t.newID()
	trace := parent.Trace
	if trace == 0 {
		trace = id
	}
	t.open.Add(1)
	return &Active{t: t, s: Span{
		Trace: trace, ID: id, Parent: parent.Span,
		Name: name, Lane: lane, Start: time.Now(),
	}}
}

// Child opens a span only when parent is valid: instrumentation on shared
// code paths (message handlers, pools) uses it so untraced traffic creates
// no orphan root traces. Returns nil on a nil tracer or invalid parent.
func (t *Tracer) Child(parent SpanContext, name, lane string) *Active {
	if t == nil || !parent.Valid() {
		return nil
	}
	return t.Start(parent, name, lane)
}

// Event records an instantaneous span (Start == End) under parent; the chaos
// layer uses it to pin injected faults onto the RPC attempt they hit.
// Untraced parents are dropped.
func (t *Tracer) Event(parent SpanContext, name, lane string, kv ...string) {
	if t == nil || !parent.Valid() {
		return
	}
	now := time.Now()
	s := Span{
		Trace: parent.Trace, ID: t.newID(), Parent: parent.Span,
		Name: name, Lane: lane, Start: now, End: now, Attrs: kvMap(kv),
	}
	t.record(s)
}

// OpenSpans counts spans started but not yet finished; the soak harness
// asserts it returns to zero after every round (a closed span tree).
func (t *Tracer) OpenSpans() int64 {
	if t == nil {
		return 0
	}
	return t.open.Load()
}

// record lands a finished span in the ring, the sink, and the tap.
func (t *Tracer) record(s Span) {
	t.ring.Push(s)
	t.mu.Lock()
	if t.sink != nil && t.sinkErr == nil {
		t.sinkErr = writeJSONL(t.sink, []Span{s})
	}
	tap := t.tap
	t.mu.Unlock()
	if tap != nil {
		tap(s)
	}
}

// Spans copies the ring, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot()
}

// TraceSpans returns the ring's spans belonging to one trace, oldest first.
// It filters inside the ring rather than snapshotting it: callers run this
// once per round against a ring retaining many rounds of spans.
func (t *Tracer) TraceSpans(trace uint64) []Span {
	if t == nil {
		return nil
	}
	return t.ring.Filter(func(s *Span) bool { return s.Trace == trace })
}

// Active is a live span handle. All methods tolerate a nil receiver, so
// callers chain straight off Start/Child without nil checks.
type Active struct {
	mu   sync.Mutex
	t    *Tracer
	s    Span
	done bool
}

// Context returns the handle's span context (zero on nil).
func (a *Active) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: a.s.Trace, Span: a.s.ID}
}

// ContextOr returns the handle's context, or fallback when the handle is nil
// (instrumented code threads the incoming request context through untraced
// sections this way).
func (a *Active) ContextOr(fallback SpanContext) SpanContext {
	if a == nil {
		return fallback
	}
	return a.Context()
}

// ID returns the span id (0 on nil).
func (a *Active) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// TraceID returns the trace id (0 on nil).
func (a *Active) TraceID() uint64 {
	if a == nil {
		return 0
	}
	return a.s.Trace
}

// SetAttr attaches one key/value attribute.
func (a *Active) SetAttr(k, v string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.done {
		return
	}
	if a.s.Attrs == nil {
		a.s.Attrs = map[string]string{}
	}
	a.s.Attrs[k] = v
}

// Event appends an instantaneous annotation to the span.
func (a *Active) Event(name string, kv ...string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.done {
		return
	}
	a.s.Events = append(a.s.Events, Event{Time: time.Now(), Name: name, Attrs: kvMap(kv)})
}

// Finish closes the span and publishes it to the ring/sink. Idempotent.
func (a *Active) Finish() { a.finish("") }

// FinishErr closes the span, recording err (nil err == Finish). Idempotent.
func (a *Active) FinishErr(err error) {
	if err == nil {
		a.finish("")
		return
	}
	a.finish(err.Error())
}

func (a *Active) finish(errText string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	a.done = true
	a.s.End = time.Now()
	a.s.Err = errText
	s := a.s
	t := a.t
	a.mu.Unlock()
	t.open.Add(-1)
	t.record(s)
}

// kvMap folds a "k, v, k, v" list into a map (nil for empty; odd trailing
// keys get an empty value rather than panicking — this runs on fault paths).
func kvMap(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if i+1 < len(kv) {
			m[kv[i]] = kv[i+1]
		} else {
			m[kv[i]] = ""
		}
	}
	return m
}

// writeJSONL writes one encoding/json object per line: the span sink's, a
// bundle's spans.jsonl and its flight.jsonl encoding.
func writeJSONL[T any](w io.Writer, vs []T) error {
	enc := json.NewEncoder(w)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses spans from a JSONL sink stream (blank lines skipped).
func ReadJSONL(r io.Reader) ([]Span, error) { return readJSONL[Span](r, "trace") }

// readJSONL parses one JSON object of type T per line (blank lines skipped);
// what names the stream in errors.
func readJSONL[T any](r io.Reader, what string) ([]T, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []T
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(b, &v); err != nil {
			return out, fmt.Errorf("obs: %s line %d: %w", what, line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

// GroupTraces splits spans by trace id, ids ordered by each trace's earliest
// span start.
func GroupTraces(spans []Span) ([]uint64, map[uint64][]Span) {
	byTrace := map[uint64][]Span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	ids := make([]uint64, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ti, tj := earliest(byTrace[ids[i]]), earliest(byTrace[ids[j]])
		if ti.Equal(tj) {
			return ids[i] < ids[j]
		}
		return ti.Before(tj)
	})
	return ids, byTrace
}

func earliest(spans []Span) time.Time {
	var t time.Time
	for i, s := range spans {
		if i == 0 || s.Start.Before(t) {
			t = s.Start
		}
	}
	return t
}
