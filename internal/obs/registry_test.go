package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("dvdc_x_total", "peer", "node1")
	c2 := r.Counter("dvdc_x_total", "peer", "node1")
	if c1 != c2 {
		t.Error("same (name, labels) returned distinct counters")
	}
	if c3 := r.Counter("dvdc_x_total", "peer", "node2"); c3 == c1 {
		t.Error("distinct labels shared a counter")
	}
	g := r.Gauge("dvdc_g")
	g.Set(7)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
	h1 := r.Histogram("dvdc_h", LatencyBuckets())
	h2 := r.Histogram("dvdc_h", nil) // bounds ignored on re-lookup
	if h1 != h2 {
		t.Error("histogram not deduped")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dvdc_x")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("dvdc_x")
}

func TestNilRegistryHandsBackWorkingInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	if c.Value() != 1 {
		t.Error("nil-registry counter inert")
	}
	r.Gauge("y").Set(3)
	r.CounterFunc("z", func() float64 { return 1 })
	r.GaugeFunc("w", func() float64 { return 1 })
	h := r.Histogram("h", LatencyBuckets())
	h.Observe(0.001)
	if h.Snapshot().Total != 1 {
		t.Error("nil-registry histogram inert")
	}
	r.MountCounterSet("m", "kind", NewCounterSet())
	var buf nopWriter
	if err := r.WritePrometheus(buf); err != nil {
		t.Error(err)
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestHistogramQuantileAccuracy checks quantile estimates against a known
// distribution: 100k uniform samples on [0, 1) observed into the latency
// buckets must estimate p50/p90/p99 within the owning bucket's resolution.
func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	rng := rand.New(rand.NewSource(42))
	n := 100000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = rng.Float64() // uniform [0,1)
		h.Observe(samples[i])
	}
	sort.Float64s(samples)
	snap := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := samples[int(q*float64(n))-1]
		got := snap.Quantile(q)
		// The owning bucket's width bounds the interpolation error; for
		// uniform [0,1) all three quantiles land in (0.25, 1], where bucket
		// widths are at most 0.5.
		if math.Abs(got-exact) > 0.051 {
			t.Errorf("q%.0f = %.4f, exact %.4f (error %.4f)", q*100, got, exact, math.Abs(got-exact))
		}
	}
	if snap.Total != int64(n) {
		t.Errorf("Total = %d, want %d", snap.Total, n)
	}
	if s := snap.Sum; math.Abs(s-float64(n)/2) > float64(n)/100 {
		t.Errorf("Sum = %.1f, want ~%d", s, n/2)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if h.Snapshot().Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	h.Observe(100) // overflow bucket
	if got := h.Snapshot().Quantile(0.5); got != 4 {
		t.Errorf("overflow quantile = %v, want last bound 4", got)
	}
	h2 := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 10; i++ {
		h2.Observe(1.5) // all in the (1,2] bucket
	}
	if got := h2.Snapshot().Quantile(0.5); got < 1 || got > 2 {
		t.Errorf("q50 = %v, want within (1,2]", got)
	}
}

func TestCounterSetSemantics(t *testing.T) {
	cs := NewCounterSet()
	cs.Add("drop", 1)
	cs.Add("corrupt", 2)
	cs.Add("drop", 1)
	if got := cs.String(); got != "drop=2 corrupt=2" {
		t.Errorf("String = %q (first-use order broken)", got)
	}
	if cs.Get("drop") != 2 || cs.Get("nope") != 0 {
		t.Error("Get wrong")
	}
	snap := cs.Snapshot()
	if len(snap) != 2 || snap["corrupt"] != 2 {
		t.Errorf("Snapshot = %v", snap)
	}
	if names := cs.Names(); len(names) != 2 || names[0] != "drop" {
		t.Errorf("Names = %v", names)
	}
}
