// Package vm models virtual-machine memory at the level DVDC cares about: a
// paged image with per-epoch dirty tracking, page hashing, and synthetic
// workloads that dirty pages the way real guests do.
//
// Two representations coexist. Machine is byte-real: it holds actual page
// contents and is what the checkpoint variants, the parity pipeline, and the
// TCP runtime operate on. Spec + DirtyModel is parametric: just the sizes
// and rates the discrete-event simulation and the paper's analytical model
// need, so simulating a 2-day run of 1 GiB guests costs no memory.
package vm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// DefaultPageSize is the conventional 4 KiB page.
const DefaultPageSize = 4096

// Machine is a byte-real paged memory image with dirty tracking.
//
// Dirty bits accumulate from the moment of construction or the last
// BeginEpoch call; checkpointing code snapshots the dirty set and calls
// BeginEpoch to open the next tracking window. Machine is not safe for
// concurrent use.
type Machine struct {
	id         string
	pageSize   int
	pages      [][]byte
	dirty      []bool
	dirtyCount int
	epoch      uint64

	hooks  map[int]WriteHook
	nextID int
}

// WriteHook observes page mutations. It is invoked with the page index and
// the page's current (pre-write) contents immediately before every mutation,
// whether or not the page is already dirty. The old slice is only valid for
// the duration of the call; hooks that keep it must copy. Copy-on-write
// checkpointing (Plank's "forked" variant, and core.Member's committed image)
// is built on this. LoadImage and RevertDirty run no hooks.
type WriteHook func(page int, old []byte)

// AddWriteHook registers a hook and returns an id for RemoveWriteHook.
func (m *Machine) AddWriteHook(h WriteHook) int {
	if m.hooks == nil {
		m.hooks = make(map[int]WriteHook)
	}
	id := m.nextID
	m.nextID++
	m.hooks[id] = h
	return id
}

// RemoveWriteHook unregisters a hook; unknown ids are ignored.
func (m *Machine) RemoveWriteHook(id int) { delete(m.hooks, id) }

// preWrite runs registered hooks before page i changes.
func (m *Machine) preWrite(i int) {
	for _, h := range m.hooks {
		h(i, m.pages[i])
	}
}

// NewMachine allocates a zeroed machine with numPages pages of pageSize
// bytes each.
func NewMachine(id string, numPages, pageSize int) (*Machine, error) {
	if numPages <= 0 {
		return nil, fmt.Errorf("vm: numPages must be positive, got %d", numPages)
	}
	if pageSize <= 0 {
		return nil, fmt.Errorf("vm: pageSize must be positive, got %d", pageSize)
	}
	return newMachine(id, pageSize, make([]byte, numPages*pageSize)), nil
}

// NewMachineFrom builds a clean machine whose memory is img itself, a whole
// number of pageSize pages. The machine takes ownership: no byte is copied or
// zeroed, and the caller must not touch img afterwards.
func NewMachineFrom(id string, pageSize int, img []byte) (*Machine, error) {
	if pageSize <= 0 || len(img) == 0 || len(img)%pageSize != 0 {
		return nil, fmt.Errorf("vm: a %d-byte image is not a positive number of %d-byte pages", len(img), pageSize)
	}
	return newMachine(id, pageSize, img), nil
}

// newMachine builds a clean machine whose pages are cut out of backing.
func newMachine(id string, pageSize int, backing []byte) *Machine {
	n := len(backing) / pageSize
	m := &Machine{id: id, pageSize: pageSize, pages: make([][]byte, n), dirty: make([]bool, n)}
	for i := range m.pages {
		m.pages[i] = backing[i*pageSize : (i+1)*pageSize : (i+1)*pageSize]
	}
	return m
}

// ID returns the machine's identifier.
func (m *Machine) ID() string { return m.id }

// NumPages returns the number of pages.
func (m *Machine) NumPages() int { return len(m.pages) }

// PageSize returns the page size in bytes.
func (m *Machine) PageSize() int { return m.pageSize }

// ImageBytes returns the total memory image size in bytes.
func (m *Machine) ImageBytes() int64 { return int64(len(m.pages)) * int64(m.pageSize) }

// Epoch returns the current dirty-tracking epoch, starting at zero.
func (m *Machine) Epoch() uint64 { return m.epoch }

// checkPage panics on an out-of-range page index; an index bug in a caller
// must not be silently absorbed.
func (m *Machine) checkPage(i int) {
	if i < 0 || i >= len(m.pages) {
		panic(fmt.Sprintf("vm: page %d out of range [0,%d)", i, len(m.pages)))
	}
}

// Page returns a read-only view of page i. Callers must not mutate it;
// use WritePage or MutatePage so dirty tracking stays correct.
func (m *Machine) Page(i int) []byte {
	m.checkPage(i)
	return m.pages[i]
}

// WritePage replaces the contents of page i and marks it dirty. data longer
// than a page is rejected; shorter data overwrites the page prefix.
func (m *Machine) WritePage(i int, data []byte) error {
	m.checkPage(i)
	if len(data) > m.pageSize {
		return fmt.Errorf("vm: write of %d bytes exceeds page size %d", len(data), m.pageSize)
	}
	m.preWrite(i)
	copy(m.pages[i], data)
	m.markDirty(i)
	return nil
}

// MutatePage applies fn to page i's contents in place and marks it dirty.
func (m *Machine) MutatePage(i int, fn func(page []byte)) {
	m.checkPage(i)
	m.preWrite(i)
	fn(m.pages[i])
	m.markDirty(i)
}

// TouchPage marks page i dirty and stamps it with the epoch and a counter so
// the content actually changes (synthetic workloads use this as a cheap
// deterministic mutation). The stamp is the counter's little-endian bytes,
// cut to the page on pages smaller than 8 bytes.
func (m *Machine) TouchPage(i int, stamp uint64) {
	m.checkPage(i)
	m.preWrite(i)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], stamp)
	copy(m.pages[i], b[:])
	m.markDirty(i)
}

// MarkDirty flags page i as dirty without changing its contents. The
// two-phase checkpoint protocol uses it when a prepared capture is aborted:
// the captured pages must re-enter the next capture's dirty set.
func (m *Machine) MarkDirty(i int) {
	m.checkPage(i)
	m.markDirty(i)
}

func (m *Machine) markDirty(i int) {
	if !m.dirty[i] {
		m.dirty[i] = true
		m.dirtyCount++
	}
}

// DirtyCount returns how many distinct pages are dirty this epoch.
func (m *Machine) DirtyCount() int { return m.dirtyCount }

// IsDirty reports whether page i is dirty this epoch.
func (m *Machine) IsDirty(i int) bool {
	m.checkPage(i)
	return m.dirty[i]
}

// NextDirty returns the first dirty page at index i or above, or -1 if there
// is none: a scan of the dirty set that allocates nothing.
func (m *Machine) NextDirty(i int) int {
	for ; i < len(m.dirty); i++ {
		if m.dirty[i] {
			return i
		}
	}
	return -1
}

// DirtyPages returns the sorted indices of dirty pages.
func (m *Machine) DirtyPages() []int {
	out := make([]int, 0, m.dirtyCount)
	for i, d := range m.dirty {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// BeginEpoch clears all dirty bits and advances the epoch counter. It is
// called by checkpoint code after capturing the dirty set.
func (m *Machine) BeginEpoch() {
	for i := range m.dirty {
		m.dirty[i] = false
	}
	m.dirtyCount = 0
	m.epoch++
}

// Image returns a copy of the full memory image as one contiguous slice.
func (m *Machine) Image() []byte {
	out := make([]byte, 0, m.ImageBytes())
	for _, p := range m.pages {
		out = append(out, p...)
	}
	return out
}

// LoadImage overwrites the whole memory from a contiguous image (e.g. a
// restored checkpoint) and clears dirty state: after a restore the machine
// is by definition in sync with its checkpoint.
func (m *Machine) LoadImage(img []byte) error {
	if int64(len(img)) != m.ImageBytes() {
		return fmt.Errorf("vm: image is %d bytes, machine holds %d", len(img), m.ImageBytes())
	}
	for i, p := range m.pages {
		copy(p, img[i*m.pageSize:])
	}
	for i := range m.dirty {
		m.dirty[i] = false
	}
	m.dirtyCount = 0
	return nil
}

// RevertDirty puts written pages back: pre is a table with one entry per
// page, and every non-nil pre[i] is copied over page i without running the
// write hooks. The dirty set is cleared; the dirty-tracking epoch stays. A
// page with no entry is left as it is, dirty or not: the caller vouches that
// it already holds the bytes wanted. A table of the wrong length is a caller
// bug and panics.
func (m *Machine) RevertDirty(pre [][]byte) {
	if len(pre) != len(m.pages) {
		panic(fmt.Sprintf("vm: pre-image table of %d pages for a %d-page machine", len(pre), len(m.pages)))
	}
	for i, p := range pre {
		if p != nil {
			copy(m.pages[i], p)
		}
	}
	clear(m.dirty)
	m.dirtyCount = 0
}

// PageHash returns a 64-bit FNV-1a hash of page i. The paper's future-work
// section proposes page hashes to skip transferring pages already present at
// a migration destination, where the other copy is on another machine;
// migrate.Dedup uses these.
func (m *Machine) PageHash(i int) uint64 {
	m.checkPage(i)
	h := fnv.New64a()
	h.Write(m.pages[i])
	return h.Sum64()
}

// Equal reports whether two machines have identical geometry and contents.
func (m *Machine) Equal(o *Machine) bool {
	if m.pageSize != o.pageSize || len(m.pages) != len(o.pages) {
		return false
	}
	for i := range m.pages {
		a, b := m.pages[i], o.pages[i]
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}
