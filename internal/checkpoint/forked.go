package checkpoint

import (
	"fmt"

	"dvdc/internal/vm"
)

// ForkSnapshot is Plank's "forked" (copy-on-write) checkpoint: the snapshot
// is logically taken the instant Fork returns, with only bookkeeping cost.
// The VM keeps executing; the first subsequent write to any page copies the
// page's pre-write content into the snapshot. Materializing later yields the
// exact image at fork time, and the extra memory consumed is proportional to
// the pages written since the fork, not to the image ("if I is consumed, 2I
// is needed" only in the worst case).
type ForkSnapshot struct {
	m           *vm.Machine
	hookID      int
	saved       map[int][]byte
	dirtyAtFork []int
	epoch       uint64
	released    bool
}

// Fork snapshots m with copy-on-write semantics and opens a new dirty epoch.
// The caller must Release the snapshot when done or the write hook stays
// registered forever.
func Fork(m *vm.Machine) *ForkSnapshot {
	f := &ForkSnapshot{
		m:           m,
		saved:       make(map[int][]byte),
		dirtyAtFork: m.DirtyPages(),
		epoch:       m.Epoch(),
	}
	f.hookID = m.AddWriteHook(func(page int, old []byte) {
		if f.released {
			return
		}
		if _, ok := f.saved[page]; !ok {
			f.saved[page] = append([]byte(nil), old...)
		}
	})
	m.BeginEpoch()
	return f
}

// DirtyAtFork returns the page indices that were dirty when the snapshot was
// taken (the increment this snapshot represents relative to the previous
// checkpoint).
func (f *ForkSnapshot) DirtyAtFork() []int {
	return append([]int(nil), f.dirtyAtFork...)
}

// CopiedBytes reports how much memory copy-on-write has consumed so far.
func (f *ForkSnapshot) CopiedBytes() int64 {
	return int64(len(f.saved)) * int64(f.m.PageSize())
}

// page returns the snapshot-time content of page i.
func (f *ForkSnapshot) page(i int) []byte {
	if old, ok := f.saved[i]; ok {
		return old
	}
	return f.m.Page(i)
}

// MaterializeIncremental produces an incremental checkpoint holding the
// fork-time content of exactly the pages that were dirty at fork time.
func (f *ForkSnapshot) MaterializeIncremental() (*Checkpoint, error) {
	if f.released {
		return nil, fmt.Errorf("checkpoint: snapshot already released")
	}
	c := &Checkpoint{
		VMID:     f.m.ID(),
		Epoch:    f.epoch,
		Kind:     Incremental,
		NumPages: f.m.NumPages(),
		PageSize: f.m.PageSize(),
		Pages:    make([]PageRecord, 0, len(f.dirtyAtFork)),
	}
	for _, i := range f.dirtyAtFork {
		c.Pages = append(c.Pages, PageRecord{Index: i, Data: append([]byte(nil), f.page(i)...)})
	}
	return c, nil
}

// Release detaches the snapshot from the machine and frees its copies.
// Releasing twice is a no-op.
func (f *ForkSnapshot) Release() {
	if f.released {
		return
	}
	f.released = true
	f.m.RemoveWriteHook(f.hookID)
	f.saved = nil
}
