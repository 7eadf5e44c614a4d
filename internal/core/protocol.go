// Package core is DVDC itself: the distributed virtual diskless
// checkpointing protocol and the discrete-event engine that measures it.
//
// The package has two halves. The byte-real half (Member, Keeper) implements
// the actual data path: members capture incremental checkpoints of their VM,
// keep the last committed image locally for rollback, and ship XOR deltas of
// the changed pages to their group's parity keeper, which patches its parity
// block RAID-5-small-write style without ever holding member images. On a
// failure, the survivors' committed images plus the parity block reconstruct
// the lost VM bit-exactly. The TCP runtime (internal/runtime) drives exactly
// this code over the network.
//
// The timing half (Scheme, Engine in engine.go) is the discrete-event
// simulation used to corroborate the paper's Section V model and to
// regenerate its evaluation figures.
package core

import (
	"bytes"
	"crypto/subtle"
	"fmt"

	"dvdc/internal/checkpoint"
	"dvdc/internal/parity"
	"dvdc/internal/vm"
)

// Delta is the RAID-5 small-write update a member sends its parity keeper
// for one checkpoint epoch: for every page the checkpoint touched, the XOR
// of the page's previous committed content and its new content. A staged
// capture (Member.Stage) is the same record before the bytes exist: the pages
// in order, Data nil.
type Delta struct {
	VMID  string
	Epoch uint64
	Pages []checkpoint.PageRecord // Data = old XOR new, len = page size
}

// PayloadBytes is the wire size of the delta's page data.
func (d *Delta) PayloadBytes() int64 {
	var n int64
	for _, p := range d.Pages {
		n += int64(len(p.Data))
	}
	return n
}

// Member is the per-VM state on its hosting node: the running machine plus
// the last committed checkpoint image, kept locally so rollback never
// touches the network (the essence of diskless checkpointing).
type Member struct {
	machine   *vm.Machine
	committed []byte // image as of the last committed checkpoint
	epoch     uint64 // protocol epoch of the committed image (0 = initial)
}

// NewMember wraps a machine and takes its initial full checkpoint (protocol
// epoch 0), which the caller must feed to the group's Keeper as the base for
// parity. The protocol epoch is the member's own counter, deliberately
// independent of vm.Machine's dirty-tracking epoch: a machine rebuilt during
// recovery starts a fresh dirty-tracking history but resumes the protocol
// epoch of the image it was restored to.
func NewMember(m *vm.Machine) (*Member, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil machine")
	}
	mem := &Member{machine: m}
	mem.committed = m.Image()
	m.BeginEpoch()
	return mem, nil
}

// NewMemberAt respawns VM id from a checkpoint: a clean machine of pageSize
// pages built from one copy of committed, which the member then keeps as its
// committed image at the given protocol epoch. It takes ownership of
// committed — the machine's copy is the only one made — so the caller must
// not touch the buffer afterwards.
func NewMemberAt(id string, pageSize int, committed []byte, epoch uint64) (*Member, error) {
	m, err := vm.NewMachineFrom(id, pageSize, committed)
	if err != nil {
		return nil, err
	}
	m.BeginEpoch()
	return &Member{machine: m, committed: committed, epoch: epoch}, nil
}

// Machine returns the underlying VM.
func (mem *Member) Machine() *vm.Machine { return mem.machine }

// Epoch returns the committed checkpoint epoch.
func (mem *Member) Epoch() uint64 { return mem.epoch }

// CommittedImage returns a copy of the last committed checkpoint image;
// during recovery this is what the member contributes to reconstruction.
func (mem *Member) CommittedImage() []byte {
	return append([]byte(nil), mem.committed...)
}

// CommittedView returns the committed image itself, not a copy. The view
// aliases the member's state: it is read-only and valid only until the member
// next advances or restores — the chunked read path encodes a range of it into
// a reply frame while holding the member's lock.
func (mem *Member) CommittedView() []byte { return mem.committed }

// CaptureDelta closes the current epoch: it snapshots the dirty pages,
// computes their XOR against the committed image, advances the committed
// image to the new state, and returns the delta for the parity keeper.
// In-process callers are expected not to fail; the two-phase protocol in the
// runtime runs the same three steps (Stage, DeltaInto, Advance) apart.
func (mem *Member) CaptureDelta() (*Delta, error) {
	return mem.CaptureDeltaInto(nil)
}

// CaptureDeltaInto is CaptureDelta with a caller-supplied allocator for the
// per-page XOR buffers (e.g. a buffer pool); nil means plain make. alloc(n)
// must return a slice of length n, which may hold stale bytes — DeltaInto
// overwrites every one of them. The caller owns the returned buffers.
func (mem *Member) CaptureDeltaInto(alloc func(int) []byte) (*Delta, error) {
	d, _, err := mem.CaptureInto(alloc, false)
	return d, err
}

// CaptureInto is a whole capture in one call — Stage, DeltaInto for every
// staged page, Advance — for callers that hold a delta in memory: the
// in-process cluster, the oracles the runtime is tested against, the layer
// benchmark. unchanged is Stage's count of skipped pages.
func (mem *Member) CaptureInto(alloc func(int) []byte, skipUnchanged bool) (d *Delta, unchanged int, err error) {
	if alloc == nil {
		alloc = func(n int) []byte { return make([]byte, n) }
	}
	d, unchanged = mem.Stage(skipUnchanged)
	ps := mem.machine.PageSize()
	for i := range d.Pages {
		p := &d.Pages[i]
		p.Data = alloc(ps)
		mem.DeltaInto(p.Data, p.Index*ps)
	}
	return d, unchanged, mem.Advance(d)
}

// Stage opens a capture: it closes the guest's dirty epoch and returns the
// pages the checkpoint will ship, in page order and with no Data yet, under
// the epoch the capture will commit as. Neither the committed image nor the
// member's epoch moves — Advance does that at commit, Unstage takes the
// capture back — so an aborted round has nothing to undo.
//
// With skipUnchanged, a dirty page whose live content equals the committed
// image is left out and only counted: its XOR delta is all zero, so folding it
// into parity is a no-op and shipping it is waste (a guest storing back the
// bytes already there dirties the page without changing it). unchanged +
// len(d.Pages) is the dirty count. The comparison is byte-exact against the
// member's own committed image: no cache, no invalidation rule, and it cannot
// skip a page that changed.
//
// Between Stage and Advance the guest must not run: the delta is read from
// the live pages whenever DeltaInto is called, and Advance copies them.
func (mem *Member) Stage(skipUnchanged bool) (d *Delta, unchanged int) {
	m := mem.machine
	ps := m.PageSize()
	dirty := m.DirtyPages()
	d = &Delta{VMID: m.ID(), Epoch: mem.epoch + 1, Pages: make([]checkpoint.PageRecord, 0, len(dirty))}
	for _, i := range dirty {
		if skipUnchanged && bytes.Equal(m.Page(i), mem.committed[i*ps:(i+1)*ps]) {
			unchanged++
			continue
		}
		d.Pages = append(d.Pages, checkpoint.PageRecord{Index: i})
	}
	m.BeginEpoch()
	return d, unchanged
}

// DeltaInto writes live XOR committed for the image bytes [off, off+len(dst))
// into dst — the one subtle.XORBytes kernel, a page at a time because the
// machine hands out pages. The range may start and end inside a page.
func (mem *Member) DeltaInto(dst []byte, off int) {
	ps := mem.machine.PageSize()
	for len(dst) > 0 {
		live := mem.machine.Page(off / ps)[off%ps:]
		n := min(len(live), len(dst))
		subtle.XORBytes(dst[:n], live[:n], mem.committed[off:off+n])
		dst, off = dst[n:], off+n
	}
}

// Advance commits a staged capture: the staged pages are copied live to
// committed and the member moves to the capture's epoch. It refuses — and
// changes nothing — when d is not the capture for the next epoch, or when the
// guest dirtied a page since Stage: the delta the keepers hold was read from
// other bytes than the ones this would commit.
func (mem *Member) Advance(d *Delta) error {
	if d == nil {
		return fmt.Errorf("core: advance to epoch <nil>, member is at %d", mem.epoch)
	}
	if d.Epoch != mem.epoch+1 {
		return fmt.Errorf("core: advance to epoch %d, member is at %d", d.Epoch, mem.epoch)
	}
	m := mem.machine
	if n := m.DirtyCount(); n != 0 {
		return fmt.Errorf("core: advance to epoch %d: guest dirtied %d pages after the capture was staged", d.Epoch, n)
	}
	ps := m.PageSize()
	for _, p := range d.Pages {
		copy(mem.committed[p.Index*ps:(p.Index+1)*ps], m.Page(p.Index))
	}
	mem.epoch = d.Epoch
	return nil
}

// Unstage takes a staged capture back (abort): its pages are re-marked dirty
// so the next capture includes them. A page Stage skipped equals its committed
// content and has nothing left to capture. A nil capture is nothing to take
// back.
func (mem *Member) Unstage(d *Delta) {
	if d == nil {
		return
	}
	for _, p := range d.Pages {
		mem.machine.MarkDirty(p.Index)
	}
}

// Rollback restores the machine to the last committed checkpoint. staged is
// the capture a prepare opened and no commit advanced, or nil: Stage cleared
// its pages' dirty bits, so they are named here. Only the dirty and staged
// pages are copied back, which costs O(dirty), not O(image), and is exact by
// the invariant incremental checkpointing already rests on: a page that is
// clean and not staged holds its committed bytes (a page that changed without
// its dirty bit would be missing from the delta, and so from parity, too).
// Stage keeps it — a page it skips as unchanged equals its committed bytes —
// and Advance, Unstage and NewMemberAt re-establish it.
func (mem *Member) Rollback(staged *Delta) error {
	mem.Unstage(staged)
	return mem.machine.RevertDirty(mem.committed)
}

// RestoreImage replaces both the committed image and the machine state, the
// operation a reconstructed VM performs when it is respawned on a new node.
func (mem *Member) RestoreImage(img []byte, epoch uint64) error {
	if err := mem.machine.LoadImage(img); err != nil {
		return err
	}
	mem.committed = append(mem.committed[:0], img...)
	mem.epoch = epoch
	return nil
}

// Keeper maintains one RAID group's parity block on the group's parity
// node. It never stores member images — only their XOR — which is what
// distinguishes parity checkpointing from replication (and is why the
// memory overhead is one image per group rather than one per VM).
type Keeper struct {
	group    int
	pageSize int
	numPages int
	parity   []byte
	epochs   map[string]uint64 // member -> epoch folded into parity
}

// NewKeeper builds the keeper from the members' initial full images.
func NewKeeper(group int, initial map[string][]byte) (*Keeper, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("core: keeper for group %d has no members", group)
	}
	var par []byte
	epochs := make(map[string]uint64, len(initial))
	for id, img := range initial {
		if par == nil {
			par = append([]byte(nil), img...)
		} else {
			if len(img) != len(par) {
				return nil, fmt.Errorf("core: member %q image %d bytes, group uses %d", id, len(img), len(par))
			}
			if err := parity.XORInto(par, img); err != nil {
				return nil, err
			}
		}
		epochs[id] = 0
	}
	return &Keeper{group: group, parity: par, epochs: epochs}, nil
}

// Group returns the group index.
func (k *Keeper) Group() int { return k.group }

// ParityBytes returns the parity block size.
func (k *Keeper) ParityBytes() int64 { return int64(len(k.parity)) }

// Parity returns a copy of the parity block (for re-homing to another node).
func (k *Keeper) Parity() []byte { return append([]byte(nil), k.parity...) }

// ApplyDelta folds one member's checkpoint delta into the parity block.
// Deltas must arrive in epoch order per member.
func (k *Keeper) ApplyDelta(d *Delta) error {
	prev, ok := k.epochs[d.VMID]
	if !ok {
		return fmt.Errorf("core: keeper group %d got delta from unknown member %q", k.group, d.VMID)
	}
	if d.Epoch != prev+1 {
		return fmt.Errorf("core: keeper group %d member %q epoch %d after %d", k.group, d.VMID, d.Epoch, prev)
	}
	for _, p := range d.Pages {
		off := p.Index * len(p.Data)
		if p.Index < 0 || off+len(p.Data) > len(k.parity) {
			return fmt.Errorf("core: delta page %d out of parity range", p.Index)
		}
		if err := parity.XORInto(k.parity[off:off+len(p.Data)], p.Data); err != nil {
			return err
		}
	}
	k.epochs[d.VMID] = d.Epoch
	return nil
}

// Reconstruct rebuilds the image of lost member lostID from the surviving
// members' committed images. Every member other than lostID must be present
// in survivors, and all members must have the same committed epoch (the
// coordinator's two-phase commit guarantees this).
func (k *Keeper) Reconstruct(lostID string, survivors map[string][]byte) ([]byte, error) {
	if _, ok := k.epochs[lostID]; !ok {
		return nil, fmt.Errorf("core: keeper group %d does not protect %q", k.group, lostID)
	}
	blocks := make([][]byte, 0, len(k.epochs))
	blocks = append(blocks, k.parity)
	for id := range k.epochs {
		if id == lostID {
			continue
		}
		img, ok := survivors[id]
		if !ok {
			return nil, fmt.Errorf("core: reconstruction of %q missing survivor %q", lostID, id)
		}
		if len(img) != len(k.parity) {
			return nil, fmt.Errorf("core: survivor %q image %d bytes, parity %d", id, len(img), len(k.parity))
		}
		blocks = append(blocks, img)
	}
	return parity.ReconstructOne(blocks...)
}

// SetEpochs overrides the per-member epoch bookkeeping; the distributed
// runtime uses it when a keeper is rebuilt mid-run from committed images
// whose protocol epochs are nonzero. Every keeper member must be covered.
func (k *Keeper) SetEpochs(epochs map[string]uint64) error {
	for id := range k.epochs {
		e, ok := epochs[id]
		if !ok {
			return fmt.Errorf("core: SetEpochs missing member %q", id)
		}
		k.epochs[id] = e
	}
	return nil
}

// Members returns the member IDs the keeper protects.
func (k *Keeper) Members() []string {
	out := make([]string, 0, len(k.epochs))
	for id := range k.epochs {
		out = append(out, id)
	}
	return out
}

// Epoch returns the last epoch folded in for a member (0 if unknown).
func (k *Keeper) Epoch(id string) uint64 { return k.epochs[id] }
