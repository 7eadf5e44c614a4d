package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dvdc/internal/vm"
	"dvdc/internal/wire"
)

// One test per participant rule: a member's staged capture, a keeper's
// chunk streams. Each refusal must leave the member or keeper as it was.

// stagedFixture is member "a" of a two-member XOR group with pages 0 and 2
// written and its capture staged, cut into two chunks and rendered, beside
// the group's keeper.
func stagedFixture(t *testing.T) (*Member, *MKeeper, *Delta, []wire.Chunk) {
	t.Helper()
	const pages, ps = 4, 16
	m, err := vm.NewMachine("a", pages, ps)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMember(m)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewMKeeper(0, 0, 1, map[string][]byte{"a": mem.CommittedImage(), "b": make([]byte, pages*ps)})
	if err != nil {
		t.Fatal(err)
	}
	m.TouchPage(0, 1)
	m.TouchPage(2, 2)
	d, _, err := mem.Stage(false)
	if err != nil {
		t.Fatal(err)
	}
	chunks := collectChunks(d, ps, pages*ps, ps)
	if len(chunks) != 2 {
		t.Fatalf("the capture cuts into %d chunks, want 2", len(chunks))
	}
	for i := range chunks {
		chunks[i].Data = make([]byte, chunks[i].RawLen)
		if err := mem.DeltaInto(d, chunks[i].Data, int(chunks[i].Offset)); err != nil {
			t.Fatal(err)
		}
	}
	return mem, k, d, chunks
}

// mustFold folds a chunk the keeper must take.
func mustFold(t *testing.T, k *MKeeper, d *Delta, attempt uint64, c *wire.Chunk) {
	t.Helper()
	if folded, err := k.Fold(d.VMID, d.Epoch, attempt, 0, c); !folded || err != nil {
		t.Fatalf("fold of chunk %d: folded %v, %v", c.Index, folded, err)
	}
}

func TestStageRefusesSecondCapture(t *testing.T) {
	mem, _, d, _ := stagedFixture(t)
	mem.Machine().TouchPage(1, 3)
	if _, _, err := mem.Stage(false); err == nil || !strings.Contains(err.Error(), "already has a staged capture") {
		t.Fatalf("a second Stage: %v", err)
	}
	if mem.Staged() != d || !mem.Machine().IsDirty(1) || mem.Machine().DirtyCount() != 1 {
		t.Fatal("a refused Stage changed the member")
	}
}

func TestDeltaIntoRefusesUnstagedCapture(t *testing.T) {
	mem, _, d, _ := stagedFixture(t)
	buf := make([]byte, 16)
	mem.Unstage()
	if err := mem.DeltaInto(d, buf, 0); err == nil || !strings.Contains(err.Error(), "no longer staged") {
		t.Fatalf("render after Unstage: %v", err)
	}
	// The retry stages the same epoch anew; the aborted capture stays dead.
	retry, _, err := mem.Stage(false)
	if err != nil || retry.Epoch != d.Epoch {
		t.Fatalf("retry: %v, epoch %d", err, retry.Epoch)
	}
	if err := mem.DeltaInto(d, buf, 0); err == nil {
		t.Fatal("the aborted capture rendered beside its retry")
	}
	if err := mem.DeltaInto(retry, buf, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFoldRefusesAbortedAttempt(t *testing.T) {
	_, k, d, chunks := stagedFixture(t)
	before := k.exKey()
	for _, attempt := range []uint64{1, 3} {
		if _, err := k.Fold(d.VMID, d.Epoch, attempt, 3, &chunks[0]); err == nil || !strings.Contains(err.Error(), "attempt 3 was aborted") {
			t.Fatalf("attempt %d folded at floor 3: %v", attempt, err)
		}
	}
	if k.exKey() != before {
		t.Fatal("a refused fold changed the keeper")
	}
	if folded, err := k.Fold(d.VMID, d.Epoch, 4, 3, &chunks[0]); !folded || err != nil {
		t.Fatalf("attempt 4 at floor 3: folded %v, %v", folded, err)
	}
}

func TestFoldRefusesConflictingStream(t *testing.T) {
	_, k, d, chunks := stagedFixture(t)
	mustFold(t, k, d, 1, &chunks[0])
	before := k.exKey()
	recut := chunks[1]
	recut.Count++
	for name, fold := range map[string]func() (bool, error){
		"another attempt":     func() (bool, error) { return k.Fold(d.VMID, d.Epoch, 2, 0, &chunks[1]) },
		"another chunk count": func() (bool, error) { return k.Fold(d.VMID, d.Epoch, 1, 0, &recut) },
	} {
		if _, err := fold(); err == nil || !strings.Contains(err.Error(), "conflicting chunk stream") {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if k.exKey() != before {
		t.Fatal("a refused fold changed the keeper")
	}
}

func TestFoldDropsDuplicateIndex(t *testing.T) {
	mem, k, d, chunks := stagedFixture(t)
	mustFold(t, k, d, 1, &chunks[0])
	before := k.exKey()
	if folded, err := k.Fold(d.VMID, d.Epoch, 1, 0, &chunks[0]); folded || err != nil {
		t.Fatalf("a re-delivered chunk: folded %v, %v", folded, err)
	}
	if k.exKey() != before {
		t.Fatal("a dropped duplicate changed the keeper")
	}
	mustFold(t, k, d, 1, &chunks[1])
	if err := k.Commit(d.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := mem.Advance(d.Epoch); err != nil {
		t.Fatal(err)
	}
	want, err := NewMKeeper(0, 0, 1, map[string][]byte{"a": mem.CommittedImage(), "b": make([]byte, k.Size())})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k.Parity(), want.Parity()) {
		t.Fatal("the duplicate folded twice: parity is not the XOR of the committed images")
	}
}

func TestCommitRefusesIncompleteOrStaleStream(t *testing.T) {
	_, k, d, chunks := stagedFixture(t)
	mustFold(t, k, d, 1, &chunks[0])
	before := k.exKey()
	if err := k.Commit(d.Epoch); err == nil || !strings.Contains(err.Error(), "incomplete (1/2)") {
		t.Fatalf("commit with chunk 1 missing: %v", err)
	}
	if k.exKey() != before {
		t.Fatal("a refused commit changed the keeper")
	}
	mustFold(t, k, d, 1, &chunks[1])
	before = k.exKey()
	for _, epoch := range []uint64{d.Epoch - 1, d.Epoch + 1} {
		if err := k.Commit(epoch); err == nil || !strings.Contains(err.Error(), "for epoch 1") {
			t.Fatalf("commit of epoch %d with a stream of epoch 1: %v", epoch, err)
		}
	}
	if k.exKey() != before {
		t.Fatal("a refused commit changed the keeper")
	}
	if err := k.Commit(d.Epoch); err != nil || k.Streams() != 0 || k.StagedPages() != 0 || k.Epoch("a") != 1 {
		t.Fatalf("commit of the complete stream: %v, %d streams, %d pages staged, epoch %d", err, k.Streams(), k.StagedPages(), k.Epoch("a"))
	}
	if err := k.Commit(d.Epoch); err != nil {
		t.Fatalf("a repeated commit with nothing open: %v", err)
	}
}

// foldStaged renders a member's staged capture chunk by chunk, as a node's
// ship does, and folds each chunk into every keeper under the round's
// attempt and abort floor. It stops at the first refusal.
func foldStaged(mem *Member, d *Delta, attempt, floor uint64, keepers ...*MKeeper) error {
	m := mem.Machine()
	var buf []byte
	chunks := d.Chunks(m.PageSize(), int(m.ImageBytes()), wire.DefaultChunkSize)
	for c, ok := chunks.Next(); ok; c, ok = chunks.Next() {
		if int(c.RawLen) > len(buf) {
			buf = make([]byte, c.RawLen)
		}
		c.Data = buf[:c.RawLen]
		if err := mem.DeltaInto(d, c.Data, int(c.Offset)); err != nil {
			return err
		}
		for _, k := range keepers {
			if _, err := k.Fold(d.VMID, d.Epoch, attempt, floor, &c); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestCheckpointRoundAbortsOnFailedFold: when one fold of a round's attempt
// is refused, the round aborts the way the runtime's does — every keeper
// drops its staged pages and every member unstages — so no committed image,
// parity block or epoch moves and the dirty pages wait for the next attempt,
// which commits them above the aborted one's floor.
func TestCheckpointRoundAbortsOnFailedFold(t *testing.T) {
	members, keepers := newMGroup(t, 3, 2, 16, 64)
	committed, dirty := map[string][]byte{}, map[string][]int{}
	for i, mem := range members {
		m := mem.Machine()
		for p := 0; p < 16; p += 1 + i {
			m.TouchPage(p, uint64(p+i+1))
		}
		committed[m.ID()], dirty[m.ID()] = mem.CommittedImage(), m.DirtyPages()
	}
	// Parity block 1 is a keeper of strangers, so every fold into it is refused.
	stranger, err := NewMKeeper(0, 1, 2, map[string][]byte{"stranger": make([]byte, keepers[1].Size())})
	if err != nil {
		t.Fatal(err)
	}
	prepare := func(attempt, floor uint64, ks ...*MKeeper) error {
		for _, mem := range members {
			d, _, err := mem.Stage(false)
			if err != nil {
				return err
			}
			if err := foldStaged(mem, d, attempt, floor, ks...); err != nil {
				return err
			}
		}
		return nil
	}
	if err := prepare(1, 0, keepers[0], stranger); err == nil {
		t.Fatal("a round with a refused fold prepared")
	}
	for _, k := range append(keepers, stranger) {
		k.Drop()
	}
	for _, mem := range members {
		mem.Unstage()
	}
	for _, mem := range members {
		m := mem.Machine()
		if mem.Epoch() != 0 || !bytes.Equal(mem.CommittedImage(), committed[m.ID()]) {
			t.Errorf("%s: the aborted round moved the member to epoch %d or changed its committed image", m.ID(), mem.Epoch())
		}
		if got := m.DirtyPages(); !slices.Equal(got, dirty[m.ID()]) {
			t.Errorf("%s: dirty pages after abort %v, want %v", m.ID(), got, dirty[m.ID()])
		}
	}
	for _, k := range keepers {
		if k.StagedPages() != 0 {
			t.Errorf("parity[%d] still holds %d staged pages", k.ParityIndex(), k.StagedPages())
		}
	}
	if err := verifyGroupParity(members, keepers); err != nil {
		t.Fatalf("after the abort: %v", err)
	}

	// The retry is attempt 2 above the aborted floor 1, and commits.
	if err := prepare(2, 1, keepers...); err != nil {
		t.Fatal(err)
	}
	for _, k := range keepers {
		if err := k.Commit(1); err != nil {
			t.Fatal(err)
		}
	}
	for _, mem := range members {
		if err := mem.Advance(1); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mem.CommittedImage(), mem.Machine().Image()) {
			t.Errorf("%s: the retried round did not commit the live image", mem.Machine().ID())
		}
	}
	if err := verifyGroupParity(members, keepers); err != nil {
		t.Fatalf("after the retry: %v", err)
	}
}
