// Package core is DVDC itself: the distributed virtual diskless
// checkpointing protocol and the discrete-event engine that measures it.
//
// The package has two halves. The byte-real half (Member, MKeeper) implements
// the actual data path: members capture incremental checkpoints of their VM,
// keep the last committed image locally for rollback, and ship XOR deltas of
// the changed pages to their group's parity keepers, which patch their parity
// blocks RAID-5-small-write style without ever holding member images. On a
// failure, the survivors' committed images plus the parity blocks reconstruct
// the lost VMs bit-exactly. The runtime (internal/runtime) drives exactly
// this code, over TCP or, in one process, over an in-memory network; core
// runs no round of its own.
//
// The round's participant rules live in Member (one staged capture) and
// MKeeper (per-member chunk streams, the attempt floor, duplicate drops,
// commit's completeness check): the runtime's handlers lock, call and reply.
// A damaged group is rebuilt by one rule too: PlanShards picks k shards and
// their coefficients, NewMemberAt and NewMKeeperFromBlock adopt the results
// at the committed epoch, and ReconstructMembers is the independent oracle
// they are tested against.
//
// The timing half (Scheme, Engine in engine.go) is the discrete-event
// simulation used to corroborate the paper's Section V model and to
// regenerate its evaluation figures.
package core

import (
	"bytes"
	"crypto/subtle"
	"fmt"
	"hash"
	"math"
	"slices"

	"dvdc/internal/checkpoint"
	"dvdc/internal/vm"
	"dvdc/internal/wire"
)

// Delta is the RAID-5 small-write update a member sends its parity keeper
// for one checkpoint epoch: for every page the checkpoint touched, the XOR
// of the page's previous committed content and its new content. A staged
// capture (Member.Stage) is the same record before the bytes exist: its pages
// as maximal runs in page order, and no Pages. A run costs 16 bytes however
// many pages it holds, and the chunks are cut from the runs as they are
// rendered (Chunks).
type Delta struct {
	VMID  string
	Epoch uint64
	Runs  []PageRun               // the captured pages, as maximal runs in page order
	Pages []checkpoint.PageRecord // filled only by CaptureDeltaInto: a record per page, Data old XOR new
}

// PageRun is a run of consecutive captured pages: First through First+Len-1.
type PageRun struct{ First, Len int }

// PageCount returns how many pages the capture holds.
func (d *Delta) PageCount() int {
	n := 0
	for _, r := range d.Runs {
		n += r.Len
	}
	return n
}

// PayloadBytes is the wire size of the delta's page data.
func (d *Delta) PayloadBytes() int64 {
	var n int64
	for _, p := range d.Pages {
		n += int64(len(p.Data))
	}
	return n
}

// Chunks returns the cursor over the capture's chunk frames in a member image
// of imageBytes bytes, cut at most chunkSize bytes long.
func (d *Delta) Chunks(pageSize, imageBytes, chunkSize int) ChunkCursor {
	c := ChunkCursor{runs: d.Runs, pageSize: pageSize, total: uint64(imageBytes), chunkSize: chunkSize}
	// Every span is at least one chunk, so no chunk size brings more spans
	// than wire.MaxChunkCount under the bound: bridge gaps first, then widen
	// the chunks. Both run only under degenerate configurations, and both
	// terminate: one span covers every run once the bridge reaches the widest
	// gap, and one chunk covers every span once the size reaches the longest.
	for c.pieces(math.MaxInt) > wire.MaxChunkCount {
		c.bridge = max(1, 2*c.bridge)
	}
	n := c.pieces(c.chunkSize)
	for ; n > wire.MaxChunkCount; n = c.pieces(c.chunkSize) {
		c.chunkSize *= 2
	}
	c.count = uint32(max(n, 1))
	return c
}

// ChunkCursor lays a staged capture out as image-coordinate chunk frames, one
// at a time and without allocating: each span of the capture's pages is cut
// into pieces of at most the chunk size, in page order. Offset/Total address
// the member's image rather than a packed stream, so a keeper stages each
// chunk into its next-epoch parity pages the moment it arrives — no
// reassembly, no delta-sized buffer on either side. The chunks carry ranges
// only (no Data). An empty capture yields one zero-length chunk so the epoch
// still reaches the keeper. A cursor is a value: a copy walks on from where
// the original stood, independently of it.
//
// A span is a run of the capture, or runs joined across gaps of at most the
// cursor's bridge in clean pages. The bridge is 0 — a span is a run — unless
// the capture has more runs than wire.MaxChunkCount, the most chunks a stream
// may count; then it is the least of 1, 2, 4, … pages that brings the spans
// under the bound. A bridged page is exact to ship: it has no pre-image, so
// it renders zeros, and a zero fold is a no-op. When the spans fit but their
// pieces do not, the chunk size doubles until they do.
type ChunkCursor struct {
	runs      []PageRun
	pageSize  int
	total     uint64 // the image's bytes: every chunk's Total
	chunkSize int
	bridge    int    // gaps of at most this many clean pages join two runs
	count     uint32 // chunks in the stream: every chunk's Count
	next      uint32 // Index of the next chunk
	run       int    // the run that opens the span after the current one
	off, end  int    // image bytes of the current span left to cut
}

// Count returns the number of chunks in the stream, at least 1.
func (c *ChunkCursor) Count() int { return int(c.count) }

// Next returns the next chunk, with no Data, and false once the stream is
// done.
func (c *ChunkCursor) Next() (wire.Chunk, bool) {
	if c.next >= c.count {
		return wire.Chunk{}, false
	}
	if c.off == c.end && c.run < len(c.runs) {
		c.off, c.end, c.run = c.span(c.run)
	}
	n := min(c.chunkSize, c.end-c.off)
	ch := wire.Chunk{Offset: uint64(c.off), Total: c.total, Index: c.next, Count: c.count, RawLen: uint32(n)}
	c.off += n
	c.next++
	return ch, true
}

// span returns the image bytes [off, end) of the span that opens with run r,
// and the run that opens the one after it.
func (c *ChunkCursor) span(r int) (off, end, next int) {
	first, last := c.runs[r].First, c.runs[r].First+c.runs[r].Len
	for r++; r < len(c.runs) && c.runs[r].First-last <= c.bridge; r++ {
		last = c.runs[r].First + c.runs[r].Len
	}
	return first * c.pageSize, last * c.pageSize, r
}

// pieces returns how many chunks of at most size bytes the spans cut into.
func (c *ChunkCursor) pieces(size int) int {
	n := 0
	for r := 0; r < len(c.runs); {
		off, end, next := c.span(r)
		n += 1 + (end-off-1)/size
		r = next
	}
	return n
}

// Member is the per-VM state on its hosting node: the running machine plus
// the last committed checkpoint image, kept locally so rollback never
// touches the network (the essence of diskless checkpointing).
//
// The committed image is not a second copy of the guest. A page the guest has
// not written since the member was built or last committed or rolled back
// holds its committed bytes live; a page it has written keeps them as a
// pre-image, which the member's write hook copies on the first write,
// copy-on-write like Plank's forked checkpoint (internal/checkpoint). So a
// page has a pre-image exactly when it is dirty or staged, and the member
// holds its image plus the pages written since its last commit. Pre-images
// come off the member's own free list and go back to it, so a round that
// writes no more pages than an earlier one allocates nothing.
// A member holds at most one staged capture: Stage opens it, DeltaInto renders
// only it, and Advance, Unstage and Rollback close it.
type Member struct {
	machine *vm.Machine
	epoch   uint64    // protocol epoch of the committed image (0 = initial)
	pre     [][]byte  // pre[i]: page i's committed bytes if written since, else nil
	held    int       // non-nil entries of pre
	free    [][]byte  // spare pre-image pages
	staged  *Delta    // the open capture, nil between rounds
	runs    []PageRun // the last capture's run list, whose array the next Stage reuses
}

// NewMember wraps a machine and takes its initial full checkpoint (protocol
// epoch 0), which the caller must feed to the group's MKeepers as the base for
// parity: the machine's current memory is the committed image, and nothing is
// copied. The protocol epoch is the member's own counter, deliberately
// independent of vm.Machine's dirty-tracking epoch: a machine rebuilt during
// recovery starts a fresh dirty-tracking history but resumes the protocol
// epoch of the image it was restored to (NewMemberAt). Every write to the
// machine must go through its write hooks from here on: LoadImage would
// bypass them.
func NewMember(m *vm.Machine) (*Member, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil machine")
	}
	mem := &Member{machine: m, pre: make([][]byte, m.NumPages())}
	m.AddWriteHook(mem.keep)
	m.BeginEpoch()
	return mem, nil
}

// NewMemberAt respawns VM id from a checkpoint: a clean machine of pageSize
// pages built over committed itself, the committed image at the given
// protocol epoch. It takes ownership of committed — nothing is copied — so
// the caller must not touch the buffer afterwards.
func NewMemberAt(id string, pageSize int, committed []byte, epoch uint64) (*Member, error) {
	m, err := vm.NewMachineFrom(id, pageSize, committed)
	if err != nil {
		return nil, err
	}
	mem, err := NewMember(m)
	if err != nil {
		return nil, err
	}
	mem.epoch = epoch
	return mem, nil
}

// Machine returns the underlying VM.
func (mem *Member) Machine() *vm.Machine { return mem.machine }

// Epoch returns the committed checkpoint epoch.
func (mem *Member) Epoch() uint64 { return mem.epoch }

// Staged returns the open capture, or nil.
func (mem *Member) Staged() *Delta { return mem.staged }

// Footprint returns the bytes the member holds for the guest: the live
// image, its pre-images and its free list. It never exceeds the image plus
// the most pages one round has written, times the page size.
func (mem *Member) Footprint() int {
	return int(mem.machine.ImageBytes()) + (mem.held+len(mem.free))*mem.machine.PageSize()
}

// committedPage returns page i's committed bytes: its pre-image, or the live
// page when the guest has not written it since the last commit.
func (mem *Member) committedPage(i int) []byte {
	if p := mem.pre[i]; p != nil {
		return p
	}
	return mem.machine.Page(i)
}

// CommittedImage returns a copy of the last committed checkpoint image;
// during recovery this is what the member contributes to reconstruction.
func (mem *Member) CommittedImage() []byte {
	out := make([]byte, mem.machine.ImageBytes())
	mem.CommittedInto(out, 0)
	return out
}

// CommittedInto copies committed image bytes [off, off+len(dst)) into dst, a
// range that must lie inside the image, a page at a time. The chunked read
// path renders a served range straight into its reply frame this way, holding
// the member's lock.
func (mem *Member) CommittedInto(dst []byte, off int) {
	ps := mem.machine.PageSize()
	for len(dst) > 0 {
		n := copy(dst, mem.committedPage(off / ps)[off%ps:])
		dst, off = dst[n:], off+n
	}
}

// HashCommitted writes the committed image into h page by page, in order,
// without materializing a copy.
func (mem *Member) HashCommitted(h hash.Hash) {
	for i := range mem.pre {
		h.Write(mem.committedPage(i))
	}
}

// keep is the member's write hook: the first write to a page since the last
// commit copies the page's pre-write bytes, its committed bytes, into a page
// off the free list.
func (mem *Member) keep(i int, old []byte) {
	if mem.pre[i] != nil {
		return
	}
	p := mem.takePage()
	copy(p, old)
	mem.pre[i] = p
	mem.held++
}

// release drops page i's pre-image, if it has one, to the free list: the
// live page holds its committed bytes again.
func (mem *Member) release(i int) {
	if p := mem.pre[i]; p != nil {
		mem.free = append(mem.free, p)
		mem.pre[i] = nil
		mem.held--
	}
}

// releaseAll drops every pre-image to the free list.
func (mem *Member) releaseAll() {
	for i := range mem.pre {
		mem.release(i)
	}
}

// takePage returns a page-sized buffer from the free list, or a fresh one.
func (mem *Member) takePage() []byte {
	if last := len(mem.free) - 1; last >= 0 {
		p := mem.free[last]
		mem.free = mem.free[:last]
		return p
	}
	return make([]byte, mem.machine.PageSize())
}

// CaptureDeltaInto is a whole capture in one call — Stage without the skip,
// DeltaInto of every staged page into its own buffer, Advance — for callers
// that hold a delta in memory: the oracles the runtime is tested against and
// the layer benchmark. alloc supplies the per-page buffers (e.g. a buffer
// pool); nil means plain make. alloc(n) must return a slice of length n, which
// may hold stale bytes — DeltaInto overwrites every one of them. The caller
// owns the returned buffers.
func (mem *Member) CaptureDeltaInto(alloc func(int) []byte) (*Delta, error) {
	if alloc == nil {
		alloc = func(n int) []byte { return make([]byte, n) }
	}
	d, _, err := mem.Stage(false)
	if err != nil {
		return nil, err
	}
	ps := mem.machine.PageSize()
	d.Pages = make([]checkpoint.PageRecord, 0, d.PageCount())
	for _, r := range d.Runs {
		for i := r.First; i < r.First+r.Len; i++ {
			p := checkpoint.PageRecord{Index: i, Data: alloc(ps)}
			mem.deltaInto(p.Data, i*ps)
			d.Pages = append(d.Pages, p)
		}
	}
	mem.runs = nil // the delta, run list included, is the caller's to keep
	return d, mem.Advance(d.Epoch)
}

// Stage opens a capture: it closes the guest's dirty epoch and returns the
// pages the checkpoint will ship as their maximal runs, in page order, under
// the epoch the capture will commit as, its run list in the previous
// capture's array. A ship that outlived its round may still hold the old
// *Delta, never reused, so it reads the list only under the lock it shares
// with Stage, once DeltaInto found its capture still staged. Neither the
// committed image nor the member's epoch moves — Advance does that at
// commit, Unstage takes the capture back — so an aborted round has nothing
// to undo. It refuses while a capture is already staged.
//
// With skipUnchanged, a dirty page whose live content equals its pre-image is
// left out and only counted, and its pre-image is released: its XOR delta is
// all zero, so folding it into parity is a no-op and shipping it is waste (a
// guest storing back the bytes already there dirties the page without
// changing it). unchanged + d.PageCount() is the dirty count. The pre-image is
// the committed page itself, so the comparison is byte-exact: no cache, no
// invalidation rule, and it cannot skip a page that changed.
//
// Between Stage and Advance the guest must not run: the delta is read from
// the live pages whenever DeltaInto is called, and Advance commits them.
func (mem *Member) Stage(skipUnchanged bool) (d *Delta, unchanged int, err error) {
	m := mem.machine
	if mem.staged != nil {
		return nil, 0, fmt.Errorf("core: %q already has a staged capture", m.ID())
	}
	// The first pass settles which dirty pages the capture skips and counts
	// the runs of the rest; the second records them. A dirty page holds a
	// pre-image (the write hook took it), so the skipped pages are the dirty
	// ones whose pre-image the first pass released.
	runs, last := 0, -2
	for i := m.NextDirty(0); i >= 0; i = m.NextDirty(i + 1) {
		if skipUnchanged && bytes.Equal(m.Page(i), mem.pre[i]) {
			mem.release(i)
			unchanged++
			continue
		}
		if i != last+1 {
			runs++
		}
		last = i
	}
	d = &Delta{VMID: m.ID(), Epoch: mem.epoch + 1, Runs: slices.Grow(mem.runs[:0], runs)}
	for i := m.NextDirty(0); i >= 0; i = m.NextDirty(i + 1) {
		switch n := len(d.Runs); {
		case skipUnchanged && mem.pre[i] == nil:
		case n > 0 && d.Runs[n-1].First+d.Runs[n-1].Len == i:
			d.Runs[n-1].Len++
		default:
			d.Runs = append(d.Runs, PageRun{First: i, Len: 1})
		}
	}
	m.BeginEpoch()
	mem.staged, mem.runs = d, d.Runs
	return d, unchanged, nil
}

// DeltaInto writes live XOR committed for the image bytes [off, off+len(dst))
// of the staged capture d into dst. It refuses once d is no longer the staged
// capture (the round was aborted; a retry stages the same epoch anew), so a
// ship that outlived its round stops instead of reading another round's bytes.
func (mem *Member) DeltaInto(d *Delta, dst []byte, off int) error {
	if d == nil || d != mem.staged {
		return fmt.Errorf("core: the capture of %q for epoch %d is no longer staged", mem.machine.ID(), mem.epoch+1)
	}
	mem.deltaInto(dst, off)
	return nil
}

// deltaInto renders the delta bytes [off, off+len(dst)) — the one
// subtle.XORBytes kernel against each page's pre-image, a page at a time; a
// page with no pre-image is unchanged and renders zeros. The range may start
// and end inside a page.
func (mem *Member) deltaInto(dst []byte, off int) {
	ps := mem.machine.PageSize()
	for len(dst) > 0 {
		i, lo := off/ps, off%ps
		live := mem.machine.Page(i)[lo:]
		n := min(len(live), len(dst))
		if pre := mem.pre[i]; pre != nil {
			subtle.XORBytes(dst[:n], live[:n], pre[lo:lo+n])
		} else {
			clear(dst[:n])
		}
		dst, off = dst[n:], off+n
	}
}

// Advance commits the staged capture as epoch: the staged pages' live bytes
// become committed by releasing their pre-images — no byte is copied — and the
// member moves to the capture's epoch. With nothing staged it is a no-op (a
// commit retried after its first reply was lost). It refuses — and changes
// nothing — a capture staged for another epoch (a stale or misrouted commit),
// and one the guest ran past: a page dirtied since Stage means the delta the
// keepers hold was read from other bytes than the ones this would commit.
func (mem *Member) Advance(epoch uint64) error {
	d := mem.staged
	if d == nil {
		return nil
	}
	if d.Epoch != epoch {
		return fmt.Errorf("core: advance to epoch %d, %q is staged for epoch %d", epoch, d.VMID, d.Epoch)
	}
	if n := mem.machine.DirtyCount(); n != 0 {
		return fmt.Errorf("core: advance to epoch %d: guest dirtied %d pages after the capture was staged", epoch, n)
	}
	for _, r := range d.Runs {
		for i := r.First; i < r.First+r.Len; i++ {
			mem.release(i)
		}
	}
	mem.epoch, mem.staged = epoch, nil
	return nil
}

// Unstage takes the staged capture back (abort): its pages are re-marked dirty
// so the next capture includes them, and keep their pre-images. A page Stage
// skipped equals its committed content and has nothing left to capture. With
// nothing staged it is a no-op.
func (mem *Member) Unstage() {
	if d := mem.staged; d != nil {
		for _, r := range d.Runs {
			for i := r.First; i < r.First+r.Len; i++ {
				mem.machine.MarkDirty(i)
			}
		}
		mem.staged = nil
	}
}

// Rollback restores the machine to the last committed checkpoint, dropping
// any capture a prepare opened and no commit advanced: every pre-image is
// copied back over its live page and released, so only the pages written
// since the last commit are copied. It needs no list of what is dirty or
// staged — a page holds its committed bytes exactly when it has no pre-image —
// so only a write that bypassed the write hooks could be missed.
func (mem *Member) Rollback() {
	mem.machine.RevertDirty(mem.pre)
	mem.releaseAll()
	mem.staged = nil
}
