package core

import (
	"crypto/subtle"
	"fmt"
	"slices"
	"sort"

	"dvdc/internal/parity"
	"dvdc/internal/wire"
)

// ParityPageSize is the grain a keeper holds its parity block in: pages of
// this many bytes, the last one shorter when the block size is not a
// multiple. A round's folds copy only the pages they touch, so what a keeper
// holds beyond its block is counted in these pages. It is a constant, not a
// setting.
const ParityPageSize = 4 << 10

// MKeeper maintains ONE of the m parity blocks protecting a RAID group
// under a systematic RS(k, m) code — the generalization to multi-failure
// tolerance that the paper motivates through Wang et al.'s double-erasure
// checkpointing. With m = 1 the code degenerates to the paper's plain XOR
// (the RS construction's first parity row is all ones); the group's m parity
// blocks live on m distinct nodes per the layout's ParityNodes.
//
// An MKeeper never stores member images — only their code — which is what
// distinguishes parity checkpointing from replication: deltas fold in via the
// linear small-write update parity ^= Coef * (old XOR new).
//
// The block is held as ParityPageSize pages, and a round is two-phase inside
// the keeper. Fold checks a chunk against its member's stream and folds it
// into next-epoch copies of the pages it covers, beside the committed ones.
// Commit checks that every stream is complete and of the named epoch, then
// swaps the copies in; Drop discards them and the streams. Displaced and
// discarded pages go on the keeper's own free list, where the next round's
// first touches find them. A keeper therefore holds its parity block plus at
// most the most pages one round has touched, and a round that touches no more
// pages than an earlier one allocates nothing. Readers (Parity, ReadParity)
// only ever see committed pages. A refused Fold or Commit changes nothing.
type MKeeper struct {
	group     int
	parityIdx int
	coder     *parity.RS
	members   []string       // sorted; position = RS data index
	index     map[string]int // member -> data index
	epochs    map[string]uint64
	streams   map[string]*stream // this round's chunk stream per member

	size      int
	pages     [][]byte // committed: page i holds block bytes [i*ParityPageSize, ...)
	staged    [][]byte // next-epoch page i, nil where this round folded nothing
	stagedIdx []int    // the indices staged holds, in first-fold order
	free      [][]byte // spare ParityPageSize pages
}

// stream is one member's chunk stream into a keeper this round. A re-delivered
// index (the transport retries once over a fresh dial) must not fold twice —
// XOR would cancel it back out — so delivery is kept per index.
type stream struct {
	epoch, attempt uint64
	seen           []bool // len = the stream's chunk count
	got            int
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
	var blk []byte
	for j, id := range k.members {
		img := initial[id]
		if j == 0 {
			blk = make([]byte, len(img))
		} else if len(img) != len(blk) {
			return nil, fmt.Errorf("core: member %q image %d bytes, group uses %d", id, len(img), len(blk))
		}
		// parity ^= Coef * img (initial fold).
		if err := k.coder.UpdateParity(blk, parityIdx, j, img); err != nil {
			return nil, err
		}
	}
	k.setBlock(blk)
	return k, nil
}

// NewMKeeperFromBlock adopts an already-encoded parity block — parity block
// parityIdx of the named members' images at epoch, as a re-homed keeper
// computes it while streaming those images in. The keeper takes ownership of
// block and holds it page by page, with no copy; every member is folded up
// to epoch.
func NewMKeeperFromBlock(group, parityIdx, tolerance int, members []string, block []byte, epoch uint64) (*MKeeper, error) {
	k, err := newMKeeper(group, parityIdx, tolerance, members)
	if err != nil {
		return nil, err
	}
	for id := range k.epochs {
		k.epochs[id] = epoch
	}
	k.setBlock(block)
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
		streams:   map[string]*stream{},
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

// setBlock makes block the committed parity, page by page. Each page is a
// full slice expression of block, so its capacity ends where the page does.
func (k *MKeeper) setBlock(block []byte) {
	n := (len(block) + ParityPageSize - 1) / ParityPageSize
	k.size = len(block)
	k.pages = make([][]byte, n)
	k.staged = make([][]byte, n)
	for i := range k.pages {
		lo := i * ParityPageSize
		hi := min(lo+ParityPageSize, len(block))
		k.pages[i] = block[lo:hi:hi]
	}
}

// eachPage walks block bytes [off, off+n) one page at a time: fn gets the page
// index i, the range [lo, hi) of that page the walk covers, and at, where
// that piece starts within the walk. The range must lie inside the block.
func eachPage(off, n int, fn func(i, lo, hi, at int) error) error {
	for at := 0; at < n; {
		i, lo := (off+at)/ParityPageSize, (off+at)%ParityPageSize
		hi := min(ParityPageSize, lo+n-at)
		if err := fn(i, lo, hi, at); err != nil {
			return err
		}
		at += hi - lo
	}
	return nil
}

// Group returns the group index; ParityIndex which of the m blocks this is.
func (k *MKeeper) Group() int { return k.group }

// ParityIndex returns which of the group's parity blocks this keeper holds.
func (k *MKeeper) ParityIndex() int { return k.parityIdx }

// Members returns the sorted member list (positions are RS data indices).

// Parity returns a copy of the committed parity block.
func (k *MKeeper) Parity() []byte {
	out := make([]byte, k.size)
	k.ReadParity(out, 0)
	return out
}

// ReadParity copies committed parity bytes [off, off+len(dst)) into dst, a
// range that must lie inside the block. The chunked read path renders a
// served range straight into its reply frame this way, holding the keeper's
// lock; staged pages are never read.
func (k *MKeeper) ReadParity(dst []byte, off int) {
	for len(dst) > 0 {
		n := copy(dst, k.pages[off/ParityPageSize][off%ParityPageSize:])
		dst, off = dst[n:], off+n
	}
}

// Epoch returns the last folded epoch for a member.
func (k *MKeeper) Epoch(id string) uint64 { return k.epochs[id] }

// Size returns the parity block length in bytes.
func (k *MKeeper) Size() int { return k.size }

// StagedPages returns how many next-epoch pages the current round holds.
func (k *MKeeper) StagedPages() int { return len(k.stagedIdx) }

// Streams returns how many member streams the current round has open.
func (k *MKeeper) Streams() int { return len(k.streams) }

// Footprint returns the bytes the keeper holds: the committed block, its
// staged pages and its free list. It never exceeds Size plus the most pages
// one round has touched, times ParityPageSize.
func (k *MKeeper) Footprint() int {
	return k.size + (len(k.stagedIdx)+len(k.free))*ParityPageSize
}

// checkFold resolves a fold's member and checks its range against the block.
func (k *MKeeper) checkFold(id string, off, n int) (int, error) {
	j, ok := k.index[id]
	if !ok {
		return 0, fmt.Errorf("core: mkeeper group %d fold from unknown member %q", k.group, id)
	}
	if off < 0 || n > k.size-off {
		return 0, fmt.Errorf("core: fold range [%d,+%d) outside %d-byte block", off, n, k.size)
	}
	return j, nil
}

// Fold is the chunked data path's receive side: it checks one decoded chunk
// of member id's delta for epoch, shipped in round attempt attempt, and folds
// it into the staged round. floor is the highest attempt an abort has named
// at the caller's node (0: none). The checks run in this order, and a refused
// chunk changes nothing: the block size, the epoch one past the member's
// folded one, the attempt above floor, the stream the chunk joins (same epoch,
// attempt and chunk count), then the member and the range; the stream opens
// only once its first chunk has folded. A re-delivered index is dropped (false,
// nil).
func (k *MKeeper) Fold(id string, epoch, attempt, floor uint64, c *wire.Chunk) (bool, error) {
	if int(c.Total) != k.size {
		return false, fmt.Errorf("core: chunk stream for %q describes a %d-byte image, group %d uses %d", id, c.Total, k.group, k.size)
	}
	if epoch != k.epochs[id]+1 {
		return false, fmt.Errorf("core: chunk stream for %q at epoch %d, keeper folded %d", id, epoch, k.epochs[id])
	}
	if floor > 0 && attempt <= floor {
		return false, fmt.Errorf("core: chunk batch for %q is of round attempt %d, and attempt %d was aborted", id, attempt, floor)
	}
	st := k.streams[id]
	if st == nil {
		st = &stream{epoch: epoch, attempt: attempt, seen: make([]bool, c.Count)}
	} else if st.epoch != epoch || st.attempt != attempt || len(st.seen) != int(c.Count) {
		return false, fmt.Errorf("core: conflicting chunk stream for %q (epoch %d attempt %d, %d chunks; had epoch %d attempt %d, %d)",
			id, epoch, attempt, c.Count, st.epoch, st.attempt, len(st.seen))
	}
	if st.seen[c.Index] {
		return false, nil
	}
	if err := k.stage(id, int(c.Offset), c.Data); err != nil {
		return false, err
	}
	if st.got == 0 { // a stream holds at least one folded chunk
		k.streams[id] = st
	}
	st.seen[c.Index] = true
	st.got++
	return true, nil
}

// stage folds one member's delta bytes at a byte offset into the next epoch's
// parity, beside the committed block, for any number of members in any order
// (the code is linear). The first fold of a round into a page writes committed
// ^ Coef*delta over the bytes it covers into a page from the free list and
// copies the rest of the committed page; later folds into that page accumulate
// in place. Nothing committed changes until commit, so an aborted round is a
// Drop.
func (k *MKeeper) stage(id string, off int, data []byte) error {
	j, err := k.checkFold(id, off, len(data))
	if err != nil {
		return err
	}
	coef := k.coder.Coef(k.parityIdx, j)
	return eachPage(off, len(data), func(i, lo, hi, at int) error {
		d := data[at : at+hi-lo]
		if page := k.staged[i]; page != nil {
			return parity.MulSliceInto(page[lo:hi], d, coef)
		}
		committed := k.pages[i]
		page := k.takePage(len(committed))
		k.staged[i] = page
		k.stagedIdx = append(k.stagedIdx, i)
		if coef != 1 {
			copy(page, committed)
			return parity.MulSliceInto(page[lo:hi], d, coef)
		}
		copy(page[:lo], committed[:lo])
		copy(page[hi:], committed[hi:])
		subtle.XORBytes(page[lo:hi], committed[lo:hi], d)
		return nil
	})
}

// Commit lands the round of epoch: every open stream must be of that epoch
// and have folded all of its chunks, and each of its members then moves to
// epoch. Everything is checked before anything changes, so a refused commit
// leaves the keeper, staged pages and streams included, as it was. With no
// stream open it is a no-op (a commit retried after its first reply was lost).
func (k *MKeeper) Commit(epoch uint64) error {
	epochs := make(map[string]uint64, len(k.streams))
	for id, st := range k.streams {
		if st.epoch != epoch {
			return fmt.Errorf("core: mkeeper group %d holds a chunk stream of %q for epoch %d, not %d", k.group, id, st.epoch, epoch)
		}
		if st.got != len(st.seen) {
			return fmt.Errorf("core: mkeeper group %d: chunk stream for %q incomplete (%d/%d)", k.group, id, st.got, len(st.seen))
		}
		epochs[id] = epoch
	}
	if err := k.commit(epochs); err != nil {
		return err
	}
	clear(k.streams)
	return nil
}

// commit lands the staged round and advances the given members' epochs.
// Every epoch must be exactly one past the member's folded epoch, and all of
// them are checked before anything changes. Each staged page then replaces its
// committed one, which goes on the free list: commit moves no parity bytes.
func (k *MKeeper) commit(epochs map[string]uint64) error {
	if err := k.checkEpochs(epochs); err != nil {
		return err
	}
	for _, i := range k.stagedIdx {
		k.putPage(k.pages[i])
		k.pages[i], k.staged[i] = k.staged[i], nil
	}
	k.stagedIdx = k.stagedIdx[:0]
	for id, e := range epochs {
		k.epochs[id] = e
	}
	return nil
}

// Drop discards the staged round (abort, rollback): its pages go on the free
// list, its streams close, and the committed block is as it was.
func (k *MKeeper) Drop() {
	for _, i := range k.stagedIdx {
		k.putPage(k.staged[i])
		k.staged[i] = nil
	}
	k.stagedIdx = k.stagedIdx[:0]
	clear(k.streams)
}

// takePage returns an n-byte page from the free list, or a fresh one.
func (k *MKeeper) takePage(n int) []byte {
	if last := len(k.free) - 1; last >= 0 {
		p := k.free[last]
		k.free = k.free[:last]
		return p[:n]
	}
	return make([]byte, n, ParityPageSize)
}

// putPage puts a page on the free list. A page of less capacity — the tail
// of a block whose size is not a page multiple — cannot stand in for another
// and is left to the collector.
func (k *MKeeper) putPage(p []byte) {
	if cap(p) == ParityPageSize {
		k.free = append(k.free, p[:ParityPageSize])
	}
}

// checkEpochs checks that every member named is one epoch past its folded one.
func (k *MKeeper) checkEpochs(epochs map[string]uint64) error {
	for id, e := range epochs {
		if _, ok := k.index[id]; !ok {
			return fmt.Errorf("core: mkeeper group %d commit for unknown member %q", k.group, id)
		}
		if e != k.epochs[id]+1 {
			return fmt.Errorf("core: mkeeper group %d member %q epoch %d after %d",
				k.group, id, e, k.epochs[id])
		}
	}
	return nil
}

// FoldInto folds one member's delta bytes at a byte offset into dst, a
// contiguous accumulation buffer of the keeper's block size, and
// DrainPendingRanges lands that buffer in the committed pages. This is the
// independent twin every oracle folds with — the fuzz target, the in-process
// tests and the runtime's differential tests check the staged round (Fold,
// Commit, Drop) against it — and the path benchmark/layers.go times. The two
// paths are not mixed within one round.
func (k *MKeeper) FoldInto(dst []byte, id string, off int, data []byte) error {
	j, err := k.checkFold(id, off, len(data))
	if err != nil {
		return err
	}
	if len(dst) != k.size {
		return fmt.Errorf("core: fold buffer %d bytes, parity block %d", len(dst), k.size)
	}
	return k.coder.UpdateParity(dst[off:off+len(data)], k.parityIdx, j, data)
}

// DrainPendingRanges folds the byte ranges of an accumulation buffer built by
// FoldInto into the committed parity pages and advances the given members'
// epochs, under Commit's epoch rule. Everything outside the ranges must still
// be zero, so folding only the touched ranges lands the identical parity at
// O(folded bytes); ranges must be disjoint ([start, end) pairs; overlap would
// fold the overlap twice). Each range is zeroed in the same pass that folds it
// (parity.XORDrain), so a reusable buffer leaves the call all-zero inside the
// ranges without a second memory sweep. Ranges and epochs are checked before
// any state changes, so a failed commit leaves parity, epochs and pending all
// untouched; a keeper that holds staged pages is refused.
func (k *MKeeper) DrainPendingRanges(pending []byte, epochs map[string]uint64, ranges [][2]int) error {
	if len(k.stagedIdx) > 0 {
		return fmt.Errorf("core: mkeeper group %d commit of a pending buffer with %d pages staged", k.group, len(k.stagedIdx))
	}
	if len(pending) != k.size {
		return fmt.Errorf("core: pending buffer %d bytes, parity block %d", len(pending), k.size)
	}
	for _, r := range ranges {
		if r[0] < 0 || r[1] < r[0] || r[1] > len(pending) {
			return fmt.Errorf("core: commit range [%d,%d) outside %d-byte block", r[0], r[1], len(pending))
		}
	}
	if err := k.checkEpochs(epochs); err != nil {
		return err
	}
	for _, r := range ranges {
		if err := eachPage(r[0], r[1]-r[0], func(i, lo, hi, at int) error {
			return parity.XORDrain(k.pages[i][lo:hi], pending[r[0]+at:r[0]+at+hi-lo])
		}); err != nil {
			return err
		}
	}
	for id, e := range epochs {
		k.epochs[id] = e
	}
	return nil
}

// Element names one element of a RAID group: member VM's committed image or,
// when VM is empty, parity block Parity.
type Element struct {
	VM     string
	Parity int
}

// Shard is one element a rebuild reads and its coefficient in each lost
// element: lost[o] is the sum over the shards of Coefs[o] times the shard.
type Shard struct {
	Element
	Coefs []byte
}

// PlanShards is the rule that rebuilds lost elements of an RS(k, m) group: it
// picks k shards and pairs each with its coefficient per lost element — the
// element's DecodeRow over one present set, so the shards are read once
// however many elements they rebuild. Data shard j is the j-th member in
// sorted order, shard k+i parity block i. Available members come first, then
// available parity blocks by index, so a lone lost VM decodes by plain XOR
// from its group-mates and parity 0, and a parity block over the k member
// images gets its encoding row. A lost element is never a source. The
// runtime's rebuilds, for recoveries, rebalances and evacuations, run it.
func PlanShards(members []string, tolerance int, lost []Element, available func(Element) bool) ([]Shard, error) {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	k := len(sorted)
	coder, err := parity.NewRS(k, tolerance)
	if err != nil {
		return nil, err
	}
	var shards []Shard
	var present []int
	add := func(e Element, shard int) {
		if !slices.Contains(lost, e) && available(e) {
			shards = append(shards, Shard{Element: e, Coefs: make([]byte, len(lost))})
			present = append(present, shard)
		}
	}
	for j, m := range sorted {
		add(Element{VM: m}, j)
	}
	for i := 0; i < tolerance && len(shards) < k; i++ {
		add(Element{Parity: i}, k+i)
	}
	for o, e := range lost {
		target := k + e.Parity
		if e.VM != "" {
			var ok bool
			if target, ok = slices.BinarySearch(sorted, e.VM); !ok {
				return nil, fmt.Errorf("core: %q is not a member of the group", e.VM)
			}
		}
		row, err := coder.DecodeRow(target, present)
		if err != nil {
			return nil, err
		}
		for i := range shards {
			shards[i].Coefs[o] = row[i]
		}
	}
	return shards, nil
}

// ReconstructMembers rebuilds up to m lost members of one group from the
// surviving members' committed images plus the available parity blocks
// (keyed by parity index). It needs at least k total shards; with t lost
// members, any t parity blocks suffice. No recovery runs it: it solves the
// whole group through parity.RS.Reconstruct, independently of PlanShards, and
// is the oracle the rebuilds are tested against.
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
