package migrate

import (
	"fmt"

	"dvdc/internal/vm"
)

// HashIndex is a destination-side index of page hashes already present (from
// template images or previously received VMs). When migration finds a source
// page whose hash the destination holds, only the hash travels — the paper's
// future-work idea of "using page hashes to speed up live migration when
// similar VMs reside at the host destination".
type HashIndex struct {
	pages map[uint64][]byte
}

// NewHashIndex builds an empty index.
func NewHashIndex() *HashIndex { return &HashIndex{pages: make(map[uint64][]byte)} }

// AddMachine indexes every page of m.
func (h *HashIndex) AddMachine(m *vm.Machine) {
	for i := 0; i < m.NumPages(); i++ {
		hash := m.PageHash(i)
		if _, ok := h.pages[hash]; !ok {
			h.pages[hash] = append([]byte(nil), m.Page(i)...)
		}
	}
}

// Lookup returns the indexed content for a hash.
func (h *HashIndex) Lookup(hash uint64) ([]byte, bool) {
	p, ok := h.pages[hash]
	return p, ok
}

// Len returns the number of distinct pages indexed.
func (h *HashIndex) Len() int { return len(h.pages) }

// Stats accounts for a byte-real migration.
type Stats struct {
	Rounds       int
	PagesSent    int
	BytesSent    int64 // page payloads that actually crossed the wire
	PagesDeduped int
	BytesDeduped int64 // payloads satisfied from the destination hash index
	FinalPages   int   // pages moved during stop-and-copy
}

// Migration moves a source Machine's memory to a destination host round by
// round. The caller interleaves guest execution between CopyRound calls
// (mutating src), exactly like a real pre-copy migration racing the guest's
// dirty rate; Finalize performs the stop-and-copy phase, after which the
// destination machine is byte-identical to the source.
type Migration struct {
	src   *vm.Machine
	dst   *vm.Machine
	index *HashIndex // optional
	stats Stats
	state int // 0 = before first round, 1 = iterating, 2 = finalized
}

// NewMigration prepares a migration of src onto a fresh destination machine
// with identical geometry and the same identity (a live-migrated VM remains
// the same VM). index may be nil to disable hash dedup.
func NewMigration(src *vm.Machine, index *HashIndex) (*Migration, error) {
	if src == nil {
		return nil, fmt.Errorf("migrate: nil source")
	}
	dst, err := vm.NewMachine(src.ID(), src.NumPages(), src.PageSize())
	if err != nil {
		return nil, err
	}
	return &Migration{src: src, dst: dst, index: index}, nil
}

// Dst exposes the destination machine (complete only after Finalize).
func (g *Migration) Dst() *vm.Machine { return g.dst }

// transfer moves one source page to the destination, consulting the hash
// index first.
func (g *Migration) transfer(i int) error {
	if g.index != nil {
		h := g.src.PageHash(i)
		if content, ok := g.index.Lookup(h); ok {
			g.stats.PagesDeduped++
			g.stats.BytesDeduped += int64(g.src.PageSize())
			return g.dst.WritePage(i, content)
		}
	}
	g.stats.PagesSent++
	g.stats.BytesSent += int64(g.src.PageSize())
	return g.dst.WritePage(i, g.src.Page(i))
}

// CopyRound performs one pre-copy round: the first round ships every page,
// later rounds ship the pages dirtied since the previous round. It returns
// how many pages were shipped this round, which the caller uses to decide
// when to stop iterating and Finalize.
func (g *Migration) CopyRound() (sent int, err error) {
	if g.state == 2 {
		return 0, fmt.Errorf("migrate: migration already finalized")
	}
	var pages []int
	if g.state == 0 {
		pages = make([]int, g.src.NumPages())
		for i := range pages {
			pages[i] = i
		}
		g.state = 1
	} else {
		pages = g.src.DirtyPages()
	}
	g.src.BeginEpoch() // writes from here on belong to the next round
	for _, i := range pages {
		if err := g.transfer(i); err != nil {
			return 0, err
		}
	}
	g.stats.Rounds++
	return len(pages), nil
}

// Finalize is the stop-and-copy phase: the caller guarantees the guest is
// paused (no further src writes); the remaining dirty pages move and the
// destination becomes identical to the source.
func (g *Migration) Finalize() (Stats, error) {
	if g.state == 0 {
		if _, err := g.CopyRound(); err != nil {
			return Stats{}, err
		}
	}
	if g.state == 2 {
		return g.stats, fmt.Errorf("migrate: migration already finalized")
	}
	remaining := g.src.DirtyPages()
	for _, i := range remaining {
		if err := g.transfer(i); err != nil {
			return g.stats, err
		}
	}
	g.stats.FinalPages = len(remaining)
	g.src.BeginEpoch()
	g.state = 2
	if !g.src.Equal(g.dst) {
		return g.stats, fmt.Errorf("migrate: destination diverged from source after stop-and-copy")
	}
	return g.stats, nil
}
