package core

import (
	"fmt"
	"sort"

	"dvdc/internal/parity"
)

// MKeeper maintains ONE of the m parity blocks protecting a RAID group
// under a systematic RS(k, m) code — the generalization to multi-failure
// tolerance that the paper motivates through Wang et al.'s double-erasure
// checkpointing. With m = 1 the code degenerates to plain XOR (the RS
// construction's first parity row is all ones), so MKeeper subsumes the
// single-parity Keeper semantically; the group's m parity blocks live on m
// distinct nodes per the layout's ParityNodes.
//
// Like Keeper, an MKeeper never stores member images: deltas fold in via
// the linear small-write update parity ^= Coef * (old XOR new).
type MKeeper struct {
	group     int
	parityIdx int
	coder     *parity.RS
	members   []string       // sorted; position = RS data index
	index     map[string]int // member -> data index
	parityBlk []byte
	epochs    map[string]uint64
}

// NewMKeeper builds parity block parityIdx (0..tolerance-1) for a group
// from the members' initial full images. All keepers of one group must be
// constructed with the same member set and tolerance so their coders agree.
func NewMKeeper(group, parityIdx, tolerance int, initial map[string][]byte) (*MKeeper, error) {
	members := make([]string, 0, len(initial))
	for id := range initial {
		members = append(members, id)
	}
	k, err := newMKeeper(group, parityIdx, tolerance, members)
	if err != nil {
		return nil, err
	}
	for j, id := range k.members {
		img := initial[id]
		if j == 0 {
			k.parityBlk = make([]byte, len(img))
		} else if len(img) != len(k.parityBlk) {
			return nil, fmt.Errorf("core: member %q image %d bytes, group uses %d", id, len(img), len(k.parityBlk))
		}
		// parity ^= Coef * img (initial fold).
		if err := k.coder.UpdateParity(k.parityBlk, parityIdx, j, img); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// NewMKeeperFromBlock adopts an already-encoded parity block — parity block
// parityIdx of the named members' current images, as a re-homed keeper
// computes it while streaming those images in. The keeper takes ownership of
// block (no copy); every member starts at epoch 0, see SetEpochs.
func NewMKeeperFromBlock(group, parityIdx, tolerance int, members []string, block []byte) (*MKeeper, error) {
	k, err := newMKeeper(group, parityIdx, tolerance, members)
	if err != nil {
		return nil, err
	}
	k.parityBlk = block
	return k, nil
}

// newMKeeper validates a keeper's identity and builds everything but its
// parity block: the coder, and the sorted member list whose positions are the
// RS data indices.
func newMKeeper(group, parityIdx, tolerance int, members []string) (*MKeeper, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: mkeeper for group %d has no members", group)
	}
	if parityIdx < 0 || parityIdx >= tolerance {
		return nil, fmt.Errorf("core: parity index %d out of range [0,%d)", parityIdx, tolerance)
	}
	coder, err := parity.NewRS(len(members), tolerance)
	if err != nil {
		return nil, err
	}
	k := &MKeeper{
		group:     group,
		parityIdx: parityIdx,
		coder:     coder,
		members:   append([]string(nil), members...),
		index:     make(map[string]int, len(members)),
		epochs:    make(map[string]uint64, len(members)),
	}
	sort.Strings(k.members)
	for j, id := range k.members {
		if _, dup := k.index[id]; dup {
			return nil, fmt.Errorf("core: mkeeper for group %d names member %q twice", group, id)
		}
		k.index[id] = j
		k.epochs[id] = 0
	}
	return k, nil
}

// Group returns the group index; ParityIndex which of the m blocks this is.
func (k *MKeeper) Group() int { return k.group }

// ParityIndex returns which of the group's parity blocks this keeper holds.
func (k *MKeeper) ParityIndex() int { return k.parityIdx }

// Members returns the sorted member list (positions are RS data indices).
func (k *MKeeper) Members() []string { return append([]string(nil), k.members...) }

// Parity returns a copy of the parity block.
func (k *MKeeper) Parity() []byte { return append([]byte(nil), k.parityBlk...) }

// ParityView returns the parity block itself, not a copy. The view aliases
// the keeper's state: it is read-only and valid only until the next fold or
// commit — the chunked read path encodes a range of it into a reply frame
// while holding the keeper's lock.
func (k *MKeeper) ParityView() []byte { return k.parityBlk }

// Epoch returns the last folded epoch for a member.
func (k *MKeeper) Epoch(id string) uint64 { return k.epochs[id] }

// SetEpochs overrides epoch bookkeeping after a mid-run rebuild.
func (k *MKeeper) SetEpochs(epochs map[string]uint64) error {
	for id := range k.epochs {
		e, ok := epochs[id]
		if !ok {
			return fmt.Errorf("core: SetEpochs missing member %q", id)
		}
		k.epochs[id] = e
	}
	return nil
}

// Size returns the parity block length in bytes.
func (k *MKeeper) Size() int { return len(k.parityBlk) }

// FoldInto folds one member's delta bytes at a byte offset into dst, an
// accumulation buffer of the keeper's block size (NOT the live parity
// block). This is the chunked data path's streaming primitive: each arriving
// chunk folds immediately — dst accumulates Coef*delta terms from any number
// of members in any order (the code is linear, so ordering is irrelevant) —
// and the whole accumulation lands in the parity block atomically at commit
// via CommitPending. Keeping the fold off the live block preserves
// two-phase-commit semantics: an aborted round just drops dst.
func (k *MKeeper) FoldInto(dst []byte, id string, off int, data []byte) error {
	j, ok := k.index[id]
	if !ok {
		return fmt.Errorf("core: mkeeper group %d fold from unknown member %q", k.group, id)
	}
	if len(dst) != len(k.parityBlk) {
		return fmt.Errorf("core: fold buffer %d bytes, parity block %d", len(dst), len(k.parityBlk))
	}
	if off < 0 || off+len(data) > len(dst) {
		return fmt.Errorf("core: fold range [%d,+%d) outside %d-byte block", off, len(data), len(dst))
	}
	return k.coder.UpdateParity(dst[off:off+len(data)], k.parityIdx, j, data)
}

// CommitPending folds an accumulation buffer built by FoldInto into the live
// parity block and advances the given members' epochs. Every epoch must be
// exactly one past the member's folded epoch — the same ordering rule
// ApplyDelta enforces — and all of them are checked before any state
// changes, so a bad commit leaves the keeper untouched.
func (k *MKeeper) CommitPending(pending []byte, epochs map[string]uint64) error {
	return k.CommitPendingRanges(pending, epochs, [][2]int{{0, len(pending)}})
}

// CommitPendingRanges is CommitPending restricted to the byte ranges of the
// accumulation buffer that folds actually touched: everything outside them
// must still be zero, so XORing only the touched ranges lands the identical
// parity at O(folded bytes) instead of O(block) per commit. Ranges must be
// disjoint ([start, end) pairs; overlap would fold the overlap twice) and
// are checked, like the epochs, before any state changes.
func (k *MKeeper) CommitPendingRanges(pending []byte, epochs map[string]uint64, ranges [][2]int) error {
	return k.commitRanges(pending, epochs, ranges, false)
}

// DrainPendingRanges is CommitPendingRanges for a reusable accumulation
// buffer: each committed range is zeroed in the same pass that folds it
// (parity.XORDrain), so pending leaves the call all-zero inside the ranges
// without a second memory sweep. A failed commit leaves parity, epochs, and
// pending all untouched.
func (k *MKeeper) DrainPendingRanges(pending []byte, epochs map[string]uint64, ranges [][2]int) error {
	return k.commitRanges(pending, epochs, ranges, true)
}

func (k *MKeeper) commitRanges(pending []byte, epochs map[string]uint64, ranges [][2]int, drain bool) error {
	if len(pending) != len(k.parityBlk) {
		return fmt.Errorf("core: pending buffer %d bytes, parity block %d", len(pending), len(k.parityBlk))
	}
	for _, r := range ranges {
		if r[0] < 0 || r[1] < r[0] || r[1] > len(pending) {
			return fmt.Errorf("core: commit range [%d,%d) outside %d-byte block", r[0], r[1], len(pending))
		}
	}
	for id, e := range epochs {
		if _, ok := k.index[id]; !ok {
			return fmt.Errorf("core: mkeeper group %d commit for unknown member %q", k.group, id)
		}
		if e != k.epochs[id]+1 {
			return fmt.Errorf("core: mkeeper group %d member %q epoch %d after %d",
				k.group, id, e, k.epochs[id])
		}
	}
	for _, r := range ranges {
		if r[0] == r[1] {
			continue
		}
		var err error
		if drain {
			err = parity.XORDrain(k.parityBlk[r[0]:r[1]], pending[r[0]:r[1]])
		} else {
			err = parity.XORInto(k.parityBlk[r[0]:r[1]], pending[r[0]:r[1]])
		}
		if err != nil {
			return err
		}
	}
	for id, e := range epochs {
		k.epochs[id] = e
	}
	return nil
}

// ApplyDelta folds one member's checkpoint delta into this parity block.
func (k *MKeeper) ApplyDelta(d *Delta) error {
	j, ok := k.index[d.VMID]
	if !ok {
		return fmt.Errorf("core: mkeeper group %d got delta from unknown member %q", k.group, d.VMID)
	}
	if d.Epoch != k.epochs[d.VMID]+1 {
		return fmt.Errorf("core: mkeeper group %d member %q epoch %d after %d",
			k.group, d.VMID, d.Epoch, k.epochs[d.VMID])
	}
	for _, p := range d.Pages {
		off := p.Index * len(p.Data)
		if p.Index < 0 || off+len(p.Data) > len(k.parityBlk) {
			return fmt.Errorf("core: delta page %d out of parity range", p.Index)
		}
		if err := k.coder.UpdateParity(k.parityBlk[off:off+len(p.Data)], k.parityIdx, j, p.Data); err != nil {
			return err
		}
	}
	k.epochs[d.VMID] = d.Epoch
	return nil
}

// ReconstructMembers rebuilds up to m lost members of one group from the
// surviving members' committed images plus the available parity blocks
// (keyed by parity index). It needs at least k total shards; with t lost
// members, any t parity blocks suffice.
func ReconstructMembers(tolerance int, members []string, survivors map[string][]byte,
	parityBlocks map[int][]byte, lost []string) (map[string][]byte, error) {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	coder, err := parity.NewRS(len(sorted), tolerance)
	if err != nil {
		return nil, err
	}
	lostSet := map[string]bool{}
	for _, id := range lost {
		lostSet[id] = true
	}
	shards := make([][]byte, len(sorted)+tolerance)
	for j, id := range sorted {
		if lostSet[id] {
			continue
		}
		img, ok := survivors[id]
		if !ok {
			return nil, fmt.Errorf("core: reconstruction missing survivor %q", id)
		}
		shards[j] = append([]byte(nil), img...)
	}
	for idx, blk := range parityBlocks {
		if idx < 0 || idx >= tolerance {
			return nil, fmt.Errorf("core: parity index %d out of range [0,%d)", idx, tolerance)
		}
		shards[len(sorted)+idx] = append([]byte(nil), blk...)
	}
	if err := coder.Reconstruct(shards); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(lost))
	for j, id := range sorted {
		if lostSet[id] {
			out[id] = shards[j]
		}
	}
	return out, nil
}
