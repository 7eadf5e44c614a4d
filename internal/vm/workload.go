package vm

import (
	"fmt"
	"math/rand"
)

// Workload dirties a Machine's pages the way a running guest would. Steps
// is the unit the simulator drives: one Step is one page write.
type Workload interface {
	// Step performs one page write against m.
	Step(m *Machine)
	// Name identifies the workload in reports.
	Name() string
}

// Uniform writes to pages chosen uniformly at random: the worst case for
// incremental checkpointing because the dirty set spreads maximally.
type Uniform struct {
	rng   *rand.Rand
	stamp uint64
}

// NewUniform builds a uniform workload with its own seeded source.
func NewUniform(seed int64) *Uniform {
	return &Uniform{rng: rand.New(rand.NewSource(seed))}
}

// Step implements Workload.
func (w *Uniform) Step(m *Machine) {
	w.stamp++
	m.TouchPage(w.rng.Intn(m.NumPages()), w.stamp)
}

// Name implements Workload.
func (w *Uniform) Name() string { return "uniform" }

// Sequential sweeps pages in order, wrapping around: models streaming
// computations (e.g. large dense linear algebra passes).
type Sequential struct {
	next  int
	stamp uint64
}

// NewSequential builds a sequential sweep workload.
func NewSequential() *Sequential { return &Sequential{} }

// Step implements Workload.
func (w *Sequential) Step(m *Machine) {
	w.stamp++
	m.TouchPage(w.next%m.NumPages(), w.stamp)
	w.next++
}

// Name implements Workload.
func (w *Sequential) Name() string { return "sequential" }

// Zipf concentrates writes on a hot set with Zipfian skew: the locality
// case where incremental checkpointing shines ("the working set is so
// comparatively small that saving only the changed state ... becomes a huge
// advantage", Sec. II-B1).
type Zipf struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	n     uint64
	stamp uint64
	s     float64
}

// NewZipf builds a Zipf workload over n pages with skew s > 1. Typical
// guest locality is s in [1.01, 2].
func NewZipf(n int, s float64, seed int64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("vm: Zipf needs n > 0 pages, got %d", n)
	}
	if s <= 1 {
		return nil, fmt.Errorf("vm: Zipf skew must be > 1, got %v", s)
	}
	rng := rand.New(rand.NewSource(seed))
	return &Zipf{
		rng:  rng,
		zipf: rand.NewZipf(rng, s, 1, uint64(n-1)),
		n:    uint64(n),
		s:    s,
	}, nil
}

// Step implements Workload. Ranks are scattered over the page space with a
// multiplicative hash so "hot" pages are not physically adjacent.
func (w *Zipf) Step(m *Machine) {
	w.stamp++
	rank := w.zipf.Uint64()
	page := (rank * 2654435761) % uint64(m.NumPages())
	m.TouchPage(int(page), w.stamp)
}

// Name implements Workload.
func (w *Zipf) Name() string { return fmt.Sprintf("zipf(s=%.2f)", w.s) }

// Phased alternates between distinct working sets, switching every
// PhaseLen steps: models application phase changes, which defeat a
// checkpointing policy tuned to a single dirty rate and motivate the
// adaptive-interval work the paper cites (Yi et al.).
type Phased struct {
	rng      *rand.Rand
	phaseLen int
	setFrac  float64
	step     int
	phase    int
	stamp    uint64
}

// NewPhased builds a phased workload: each phase writes uniformly within a
// contiguous window covering setFrac of memory; the window moves every
// phaseLen steps.
func NewPhased(phaseLen int, setFrac float64, seed int64) (*Phased, error) {
	if phaseLen <= 0 {
		return nil, fmt.Errorf("vm: phase length must be positive, got %d", phaseLen)
	}
	if setFrac <= 0 || setFrac > 1 {
		return nil, fmt.Errorf("vm: working-set fraction must be in (0,1], got %v", setFrac)
	}
	return &Phased{rng: rand.New(rand.NewSource(seed)), phaseLen: phaseLen, setFrac: setFrac}, nil
}

// Step implements Workload.
func (w *Phased) Step(m *Machine) {
	if w.step > 0 && w.step%w.phaseLen == 0 {
		w.phase++
	}
	w.step++
	w.stamp++
	n := m.NumPages()
	window := int(float64(n) * w.setFrac)
	if window < 1 {
		window = 1
	}
	base := (w.phase * window) % n
	m.TouchPage((base+w.rng.Intn(window))%n, w.stamp)
}

// Name implements Workload.
func (w *Phased) Name() string { return fmt.Sprintf("phased(len=%d,ws=%.2f)", w.phaseLen, w.setFrac) }

// Rewrite models checkpoint similarity: pages are re-dirtied constantly but
// only a fraction of writes change content — the rest store back the values
// already there (databases rewriting clean buffers, zeroed heap arenas,
// double-buffered state). Dirty-page tracking sees every write, so an
// incremental checkpointer ships the whole working set each epoch even
// though most pages are byte-identical to the last committed image. This is
// the workload the checkpointer's unchanged-page skip exists for.
type Rewrite struct {
	rng        *rand.Rand
	stamp      uint64
	changeFrac float64
}

// NewRewrite builds a rewrite workload: each step dirties a uniformly
// chosen page, and with probability changeFrac (clamped to [0,1]) actually
// changes its content.
func NewRewrite(seed int64, changeFrac float64) *Rewrite {
	if changeFrac < 0 {
		changeFrac = 0
	}
	if changeFrac > 1 {
		changeFrac = 1
	}
	return &Rewrite{rng: rand.New(rand.NewSource(seed)), changeFrac: changeFrac}
}

// Step implements Workload.
func (w *Rewrite) Step(m *Machine) {
	page := w.rng.Intn(m.NumPages())
	if w.rng.Float64() < w.changeFrac {
		w.stamp++
		m.TouchPage(page, w.stamp)
		return
	}
	// Store-back of identical bytes: the page is dirtied, its content is not.
	m.MutatePage(page, func([]byte) {})
}

// Name implements Workload.
func (w *Rewrite) Name() string { return fmt.Sprintf("rewrite(change=%.2f)", w.changeFrac) }

// Run advances the workload n steps against m.
func Run(w Workload, m *Machine, n int) {
	for i := 0; i < n; i++ {
		w.Step(m)
	}
}
