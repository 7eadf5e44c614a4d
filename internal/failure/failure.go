// Package failure provides the stochastic failure processes DVDC's analysis
// and simulation are driven by.
//
// The paper assumes failures follow a Poisson process (exponential
// inter-arrival times with rate lambda = 1/MTBF) and motivates its numbers
// with published cluster MTBFs as low as a few hours. Besides the Poisson
// process, the package implements the Weibull "bathtub"-capable model the
// paper name-checks, a deterministic trace process for replaying recorded
// failure logs, and a per-node correlated wrapper: in DVDC a physical-node
// failure takes down every VM on that node at once, which is exactly why the
// orthogonal-RAID placement exists.
//
// All processes are seeded explicitly and therefore reproducible.
package failure

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Process yields successive absolute failure times (seconds) in increasing
// order. Implementations are not safe for concurrent use; give each
// goroutine its own process.
type Process interface {
	// Next returns the absolute time of the next failure strictly after the
	// previous one returned (or after zero for the first call).
	Next() float64
	// Reset restarts the process from time zero with its original seed so a
	// run can be replayed exactly.
	Reset()
}

// Poisson is a homogeneous Poisson failure process with rate Lambda
// (failures per second). Inter-arrival times are Exp(lambda).
type Poisson struct {
	lambda float64
	seed   int64
	rng    *rand.Rand
	now    float64
}

// NewPoisson builds a Poisson process with the given rate and seed.
// The rate must be positive and finite.
func NewPoisson(lambda float64, seed int64) (*Poisson, error) {
	if lambda <= 0 || math.IsInf(lambda, 0) || math.IsNaN(lambda) {
		return nil, fmt.Errorf("failure: invalid Poisson rate %v", lambda)
	}
	p := &Poisson{lambda: lambda, seed: seed}
	p.Reset()
	return p, nil
}

// NewPoissonMTBF builds a Poisson process from a mean time between failures
// in seconds (the parameterization the paper uses: lambda = 1/MTBF).
func NewPoissonMTBF(mtbf float64, seed int64) (*Poisson, error) {
	if mtbf <= 0 {
		return nil, fmt.Errorf("failure: invalid MTBF %v", mtbf)
	}
	return NewPoisson(1/mtbf, seed)
}

// Next implements Process.
func (p *Poisson) Next() float64 {
	p.now += p.rng.ExpFloat64() / p.lambda
	return p.now
}

// Reset implements Process.
func (p *Poisson) Reset() {
	p.rng = rand.New(rand.NewSource(p.seed))
	p.now = 0
}

// Weibull is a renewal process whose inter-arrival times follow a Weibull
// distribution with shape K and scale Lambda (seconds). K < 1 produces the
// decreasing hazard of infant mortality, K = 1 reduces to exponential, and
// K > 1 the increasing hazard of wear-out -- together the "bathtub curve"
// regimes the paper contrasts with its Poisson assumption.
type Weibull struct {
	shape, scale float64
	seed         int64
	rng          *rand.Rand
	now          float64
}

// NewWeibull builds a Weibull renewal process.
func NewWeibull(shape, scale float64, seed int64) (*Weibull, error) {
	if shape <= 0 || scale <= 0 {
		return nil, fmt.Errorf("failure: invalid Weibull shape %v scale %v", shape, scale)
	}
	w := &Weibull{shape: shape, scale: scale, seed: seed}
	w.Reset()
	return w, nil
}

// Next implements Process via inverse-CDF sampling.
func (w *Weibull) Next() float64 {
	u := w.rng.Float64()
	for u == 0 { // avoid log(0)
		u = w.rng.Float64()
	}
	w.now += w.scale * math.Pow(-math.Log(u), 1/w.shape)
	return w.now
}

// Reset implements Process.
func (w *Weibull) Reset() {
	w.rng = rand.New(rand.NewSource(w.seed))
	w.now = 0
}

// MeanInterarrival returns the process mean inter-arrival time,
// scale * Gamma(1 + 1/shape).
func (w *Weibull) MeanInterarrival() float64 {
	return w.scale * math.Gamma(1+1/w.shape)
}

// Trace replays a fixed, sorted schedule of failure times. After the trace
// is exhausted Next returns +Inf.
type Trace struct {
	times []float64
	idx   int
}

// NewTrace builds a trace process from absolute failure times; the input is
// copied and sorted. Negative times are rejected.
func NewTrace(times []float64) (*Trace, error) {
	cp := append([]float64(nil), times...)
	for _, t := range cp {
		if t < 0 || math.IsNaN(t) {
			return nil, errors.New("failure: trace times must be non-negative")
		}
	}
	sort.Float64s(cp)
	return &Trace{times: cp}, nil
}

// Next implements Process.
func (t *Trace) Next() float64 {
	if t.idx >= len(t.times) {
		return math.Inf(1)
	}
	v := t.times[t.idx]
	t.idx++
	return v
}

// Reset implements Process.
func (t *Trace) Reset() { t.idx = 0 }

// Remaining returns how many failures the trace still holds.
func (t *Trace) Remaining() int { return len(t.times) - t.idx }

// Never is a Process that never fails; useful for fault-free baselines.
type Never struct{}

// Next implements Process.
func (Never) Next() float64 { return math.Inf(1) }

// Reset implements Process.
func (Never) Reset() {}
