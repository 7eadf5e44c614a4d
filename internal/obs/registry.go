package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments by n (negative deltas are a programming error and ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (either sign).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with cumulative Prometheus
// exposition and quantile estimation by linear interpolation inside the
// owning bucket. Observations are float64 (seconds for latencies, bytes for
// sizes); values above the last bound land in the +Inf overflow bucket.
type Histogram struct {
	bounds []float64 // ascending upper bounds; counts has one extra +Inf slot
	mu     sync.Mutex
	counts []int64
	sum    float64
	total  int64
}

// NewHistogram builds a standalone histogram over ascending bucket bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// HistSnapshot is a consistent point-in-time copy of a histogram, exported so
// readers (the health evaluator, benchmarks) can diff cumulative bucket counts
// between scrapes and compute windowed quantiles. Counts has one extra +Inf
// slot beyond Bounds.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	Total  int64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{Bounds: h.bounds, Counts: append([]int64(nil), h.counts...), Sum: h.sum, Total: h.total}
}

// Sub returns the bucket-wise difference s - base (same bounds assumed), i.e.
// the distribution of observations that happened between the two snapshots.
func (s HistSnapshot) Sub(base HistSnapshot) HistSnapshot {
	out := HistSnapshot{Bounds: s.Bounds, Sum: s.Sum - base.Sum, Total: s.Total - base.Total}
	out.Counts = make([]int64, len(s.Counts))
	copy(out.Counts, s.Counts)
	for i := range base.Counts {
		if i < len(out.Counts) {
			out.Counts[i] -= base.Counts[i]
		}
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the snapshot assuming
// observations are uniform inside each bucket. The overflow bucket cannot be
// interpolated and reports the last finite bound. Returns 0 with no
// observations.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Total <= 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Total)
	var cum int64
	for i, c := range s.Counts {
		if c <= 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(s.Bounds) { // overflow bucket
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return s.Bounds[len(s.Bounds)-1]
}

// LatencyBuckets is the registry-wide bucket layout for wall-clock
// histograms, in seconds: 100µs to 10s, roughly 2.5x per step.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// ByteBuckets is the bucket layout for payload-size histograms: 256 B to
// 256 MiB (the wire's MaxFrame), 4x per step.
func ByteBuckets() []float64 {
	var out []float64
	for b := 256.0; b <= 256*1024*1024; b *= 4 {
		out = append(out, b)
	}
	return out
}

// seriesKind discriminates what a registered series holds.
type seriesKind uint8

const (
	kindCounter seriesKind = iota + 1
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

func (k seriesKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one metric label pair.
type Label struct{ Key, Value string }

// series is one (name, labels) time series.
type series struct {
	name    string
	labels  []Label
	kind    seriesKind
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// counterMount exposes an externally owned CounterSet as one counter family,
// each entry labelled {labelKey="<entry name>"}.
type counterMount struct {
	name     string
	labelKey string
	set      *CounterSet
}

// Registry holds named metric series for Prometheus exposition. Get-or-create
// accessors make instrumentation declarative: calling Counter twice with the
// same name and labels returns the same *Counter. A nil *Registry hands back
// standalone unregistered instruments, so instrumented code needs no guards.
type Registry struct {
	mu       sync.Mutex
	byKey    map[string]*series
	mounts   []counterMount
	hooks    []collectHook
	healthz  atomic.Value // HealthzFunc
	collects atomic.Int64
}

// collectHook is a named pre-scrape callback; named so re-registration
// replaces instead of stacking (mounting Go runtime metrics twice must not
// double-feed the GC pause histogram).
type collectHook struct {
	name string
	fn   func()
}

// HealthzFunc answers /healthz: ok is the liveness verdict, body the document
// rendered when the caller asked for the verbose JSON form.
type HealthzFunc func(verbose bool) (ok bool, body any)

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{byKey: map[string]*series{}} }

// seriesKey canonicalizes (name, sorted labels).
func seriesKey(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

// parseLabels folds variadic "k, v, k, v" into sorted label pairs.
func parseLabels(name string, kv []string) []Label {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s: odd label list %v", name, kv))
	}
	labels := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	return labels
}

// lookup get-or-creates a series, enforcing kind consistency. make builds
// the instrument on first use; replace allows func series to be re-bound
// (a pool recreated after repair re-registers its funcs on the same key).
func (r *Registry) lookup(name string, kind seriesKind, kv []string, mk func(*series), replace bool) *series {
	labels := parseLabels(name, kv)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %v (was %v)", name, kind.promType(), s.kind.promType()))
		}
		if replace {
			mk(s)
		}
		return s
	}
	s := &series{name: name, labels: labels, kind: kind}
	mk(s)
	r.byKey[key] = s
	return s
}

// Counter get-or-creates a counter series. kv is "key, value, key, value".
func (r *Registry) Counter(name string, kv ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.lookup(name, kindCounter, kv, func(s *series) {
		if s.counter == nil {
			s.counter = &Counter{}
		}
	}, false).counter
}

// Gauge get-or-creates a gauge series.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return r.lookup(name, kindGauge, kv, func(s *series) {
		if s.gauge == nil {
			s.gauge = &Gauge{}
		}
	}, false).gauge
}

// CounterFunc registers (or re-binds) a counter series read from fn at
// exposition time.
func (r *Registry) CounterFunc(name string, fn func() float64, kv ...string) {
	if r == nil {
		return
	}
	r.lookup(name, kindCounterFunc, kv, func(s *series) { s.fn = fn }, true)
}

// GaugeFunc registers (or re-binds) a gauge series read from fn at
// exposition time.
func (r *Registry) GaugeFunc(name string, fn func() float64, kv ...string) {
	if r == nil {
		return
	}
	r.lookup(name, kindGaugeFunc, kv, func(s *series) { s.fn = fn }, true)
}

// Histogram get-or-creates a histogram series (bounds are only consulted on
// first creation).
func (r *Registry) Histogram(name string, bounds []float64, kv ...string) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	return r.lookup(name, kindHistogram, kv, func(s *series) {
		if s.hist == nil {
			s.hist = NewHistogram(bounds)
		}
	}, false).hist
}

// MountCounterSet exposes an ordered CounterSet (e.g. the chaos injector's
// per-kind fault tallies) as the counter family name{labelKey="<entry>"}.
// Mounting the same set on the same name again is a no-op.
func (r *Registry) MountCounterSet(name, labelKey string, set *CounterSet) {
	if r == nil || set == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.mounts {
		if m.name == name && m.set == set {
			return
		}
	}
	r.mounts = append(r.mounts, counterMount{name: name, labelKey: labelKey, set: set})
}

// OnCollect registers (or replaces, by name) a hook run by Collect before any
// reader snapshots the registry — the seam that lets lazily computed series
// (GC pause deltas, health evaluations) refresh exactly once per scrape.
func (r *Registry) OnCollect(name string, fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.hooks {
		if r.hooks[i].name == name {
			r.hooks[i].fn = fn
			return
		}
	}
	r.hooks = append(r.hooks, collectHook{name: name, fn: fn})
}

// Collect runs the registered OnCollect hooks (outside the registry lock, so
// hooks may observe and register series). WritePrometheus calls it; in-process
// readers should too before sampling func series that depend on hooks.
func (r *Registry) Collect() {
	if r == nil {
		return
	}
	r.mu.Lock()
	hooks := make([]func(), 0, len(r.hooks))
	for _, h := range r.hooks {
		hooks = append(hooks, h.fn)
	}
	r.mu.Unlock()
	r.collects.Add(1)
	for _, fn := range hooks {
		fn()
	}
}

// SetHealthz installs the process health provider consulted by the /healthz
// endpoint of every mux built over this registry. The health evaluator
// installs itself here; without a provider /healthz reports plain liveness.
func (r *Registry) SetHealthz(fn HealthzFunc) {
	if r == nil {
		return
	}
	r.healthz.Store(fn)
}

// Healthz returns the installed provider, or nil.
func (r *Registry) Healthz() HealthzFunc {
	if r == nil {
		return nil
	}
	fn, _ := r.healthz.Load().(HealthzFunc)
	return fn
}

// Value reads one scalar series (counter, gauge, or func). The bool reports
// whether the series exists.
func (r *Registry) Value(name string, kv ...string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	key := seriesKey(name, parseLabels(name, kv))
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byKey[key]
	if !ok {
		return 0, false
	}
	switch s.kind {
	case kindCounter:
		return float64(s.counter.Value()), true
	case kindGauge:
		return float64(s.gauge.Value()), true
	case kindCounterFunc, kindGaugeFunc:
		return s.fn(), true
	}
	return 0, false
}

// HistogramSnapshot reads one histogram series' current cumulative state.
func (r *Registry) HistogramSnapshot(name string, kv ...string) (HistSnapshot, bool) {
	if r == nil {
		return HistSnapshot{}, false
	}
	key := seriesKey(name, parseLabels(name, kv))
	r.mu.Lock()
	s, ok := r.byKey[key]
	r.mu.Unlock()
	if !ok || s.kind != kindHistogram {
		return HistSnapshot{}, false
	}
	return s.hist.Snapshot(), true
}

// FamilySample is one series of a family as read by Family.
type FamilySample struct {
	Labels []Label
	Value  float64
}

// Family enumerates every scalar series registered under name, in a
// deterministic label order. Histogram series are skipped (use
// HistogramSnapshot); mounted counter sets are included.
func (r *Registry) Family(name string) []FamilySample {
	if r == nil {
		return nil
	}
	var out []FamilySample
	r.mu.Lock()
	for _, s := range r.byKey {
		if s.name != name {
			continue
		}
		switch s.kind {
		case kindCounter:
			out = append(out, FamilySample{Labels: s.labels, Value: float64(s.counter.Value())})
		case kindGauge:
			out = append(out, FamilySample{Labels: s.labels, Value: float64(s.gauge.Value())})
		case kindCounterFunc, kindGaugeFunc:
			out = append(out, FamilySample{Labels: s.labels, Value: s.fn()})
		}
	}
	mounts := append([]counterMount(nil), r.mounts...)
	r.mu.Unlock()
	for _, m := range mounts {
		if m.name != name {
			continue
		}
		snap := m.set.Snapshot()
		for _, entry := range m.set.Names() {
			out = append(out, FamilySample{
				Labels: []Label{{Key: m.labelKey, Value: entry}},
				Value:  float64(snap[entry]),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return renderLabels(out[i].Labels) < renderLabels(out[j].Labels)
	})
	return out
}

// FamilySum sums every scalar series of a family (0 when none exist) — the
// one-line read for "how many peers are flagged outliers right now".
func (r *Registry) FamilySum(name string) float64 {
	var sum float64
	for _, s := range r.Family(name) {
		sum += s.Value
	}
	return sum
}

// CounterSet is a labelled set of monotonically increasing counters that
// renders in first-use order, so reports are stable across runs with the
// same event sequence. The chaos injector tallies fired faults per kind with
// one, and a set can be mounted into a Registry for exposition.
type CounterSet struct {
	mu     sync.Mutex
	order  []string
	byName map[string]int64
}

// NewCounterSet builds an empty set.
func NewCounterSet() *CounterSet { return &CounterSet{byName: map[string]int64{}} }

// Add increments one counter by delta.
func (c *CounterSet) Add(name string, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byName[name]; !ok {
		c.order = append(c.order, name)
	}
	c.byName[name] += delta
}

// Get returns one counter's value (0 if never incremented).
func (c *CounterSet) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byName[name]
}

// Names returns the counter names in first-use order.
func (c *CounterSet) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// Snapshot copies every counter into a fresh map.
func (c *CounterSet) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.byName))
	for k, v := range c.byName {
		out[k] = v
	}
	return out
}

// String renders "name=value" pairs in first-use order.
func (c *CounterSet) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	parts := make([]string, 0, len(c.order))
	for _, name := range c.order {
		parts = append(parts, fmt.Sprintf("%s=%d", name, c.byName[name]))
	}
	return strings.Join(parts, " ")
}
