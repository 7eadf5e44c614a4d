package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dvdc/internal/checkpoint"
	"dvdc/internal/vm"
)

// skipTwin is one side of the differential: a member, the parity block of
// its group (GF row 1 of a tolerance-2 group, so folds run the multiply
// kernel, not plain XOR).
type skipTwin struct {
	m      *vm.Machine
	mem    *Member
	keeper *MKeeper
}

func newSkipTwin(t *testing.T, img, mate []byte, ps int) *skipTwin {
	t.Helper()
	mem, err := NewMemberAt("a", ps, bytes.Clone(img), 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewMKeeper(0, 1, 2, map[string][]byte{"a": img, "b": mate})
	if err != nil {
		t.Fatal(err)
	}
	return &skipTwin{m: mem.Machine(), mem: mem, keeper: k}
}

// foldAndCommit lands a captured delta in the twin's parity block the way the
// runtime does: stage page by page, then commit.
func (tw *skipTwin) foldAndCommit(t *testing.T, d *Delta) {
	t.Helper()
	ps := tw.m.PageSize()
	for _, p := range d.Pages {
		if err := tw.keeper.stage(d.VMID, p.Index*ps, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.keeper.commit(map[string]uint64{d.VMID: d.Epoch}); err != nil {
		t.Fatal(err)
	}
}

// TestCaptureSkipMatchesNoSkip is the differential test of the unchanged-page
// skip: twin members replay one seeded write stream — content changes,
// store-backs of identical bytes, a change written and reverted inside the
// epoch, and writes that differ from the committed page only in its last byte
// (the comparison's worst case, and the byte a short compare would miss) — on
// page sizes around the compare and XOR kernels' tails. One captures with the
// skip, one without. After every epoch both must hold the same committed
// image and, once the deltas are folded and committed, the same parity block;
// the skip side's counts must add up to its dirty set; and an unstaged capture
// must leave image and epoch alone and put back the dirty bits of the pages it
// staged.
func TestCaptureSkipMatchesNoSkip(t *testing.T) {
	for _, ps := range []int{1, 7, 4096, 4097} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("ps=%d/seed=%d", ps, seed), func(t *testing.T) {
				const pages = 24
				rng := rand.New(rand.NewSource(seed))
				img, mate := make([]byte, pages*ps), make([]byte, pages*ps)
				rng.Read(img)
				rng.Read(mate)
				skip, plain := newSkipTwin(t, img, mate, ps), newSkipTwin(t, img, mate, ps)

				var stamp uint64
				var sawSkip, sawTail bool
				for epoch := 0; epoch < 12; epoch++ {
					for w := 0; w < 40; w++ {
						page, kind := rng.Intn(pages), rng.Intn(4)
						fresh := make([]byte, ps)
						rng.Read(fresh)
						flip := byte(1 + rng.Intn(255))
						stamp++
						for _, tw := range []*skipTwin{skip, plain} {
							switch {
							case kind == 0 && ps >= 8:
								tw.m.TouchPage(page, stamp)
							case kind == 0:
								tw.m.MutatePage(page, func(p []byte) { copy(p, fresh) })
							case kind == 1:
								tw.m.MutatePage(page, func([]byte) {}) // store-back
							case kind == 2:
								tw.m.MutatePage(page, func(p []byte) { p[len(p)-1] ^= flip })
							default: // changed and reverted within the epoch
								tw.m.MutatePage(page, func(p []byte) { p[0] ^= flip })
								tw.m.MutatePage(page, func(p []byte) { p[0] ^= flip })
							}
						}
					}
					before := skip.mem.CommittedImage()
					dirty := skip.m.DirtyPages()
					tailOnly := 0
					for _, i := range dirty {
						cur, old := skip.m.Page(i), before[i*ps:(i+1)*ps]
						if !bytes.Equal(cur, old) && bytes.Equal(cur[:ps-1], old[:ps-1]) {
							tailOnly++
						}
					}

					if epoch%4 == 3 {
						// Aborted round: both sides stage, then unstage. Nothing
						// was committed, so there is nothing to put back; the skip
						// side re-marks only what it staged — the pages it skipped
						// equal the committed image and have nothing left to
						// capture.
						ds, unchanged, _ := skip.mem.Stage(true)
						plain.mem.Stage(false)
						if unchanged+ds.PageCount() != len(dirty) {
							t.Fatalf("epoch %d: %d unchanged + %d staged != %d dirty", epoch, unchanged, ds.PageCount(), len(dirty))
						}
						captured := stagedPages(ds)
						x := make([]byte, ps)
						for _, i := range captured {
							if skip.mem.deltaInto(x, i*ps); bytes.Equal(x, make([]byte, ps)) {
								t.Fatalf("epoch %d: skip capture staged all-zero page %d", epoch, i)
							}
						}
						sawSkip = sawSkip || unchanged > 0
						sawTail = sawTail || tailOnly > 0
						skip.mem.Unstage()
						plain.mem.Unstage()
						if !bytes.Equal(skip.mem.CommittedImage(), before) || !bytes.Equal(plain.mem.CommittedImage(), before) {
							t.Fatalf("epoch %d: an unstaged capture moved the committed image", epoch)
						}
						if skip.mem.Epoch() != ds.Epoch-1 || plain.mem.Epoch() != skip.mem.Epoch() {
							t.Fatalf("epoch %d: epochs after unstage: skip %d plain %d, want %d", epoch, skip.mem.Epoch(), plain.mem.Epoch(), ds.Epoch-1)
						}
						if got := skip.m.DirtyPages(); !slices.Equal(got, captured) {
							t.Fatalf("epoch %d: dirty set after unstage %v, want the staged pages %v", epoch, got, captured)
						}
						if got := plain.m.DirtyPages(); !slices.Equal(got, dirty) {
							t.Fatalf("epoch %d: no-skip dirty set after unstage %v, want %v", epoch, got, dirty)
						}
						continue
					}
					ds, unchanged, _ := skip.mem.Stage(true)
					for _, i := range stagedPages(ds) {
						p := checkpoint.PageRecord{Index: i, Data: make([]byte, ps)}
						skip.mem.DeltaInto(ds, p.Data, i*ps)
						ds.Pages = append(ds.Pages, p)
					}
					if err := skip.mem.Advance(ds.Epoch); err != nil {
						t.Fatal(err)
					}
					dp, err := plain.mem.CaptureDeltaInto(nil)
					if err != nil {
						t.Fatal(err)
					}
					if unchanged+len(ds.Pages) != len(dirty) {
						t.Fatalf("epoch %d: %d unchanged + %d captured != %d dirty", epoch, unchanged, len(ds.Pages), len(dirty))
					}
					for _, p := range ds.Pages {
						if bytes.Equal(p.Data, make([]byte, ps)) {
							t.Fatalf("epoch %d: skip capture kept all-zero page %d", epoch, p.Index)
						}
					}
					if !bytes.Equal(skip.mem.CommittedImage(), plain.mem.CommittedImage()) {
						t.Fatalf("epoch %d: committed images diverge", epoch)
					}
					if !bytes.Equal(skip.mem.CommittedImage(), skip.m.Image()) {
						t.Fatalf("epoch %d: skip capture left the committed image behind the machine", epoch)
					}
					sawSkip = sawSkip || unchanged > 0
					sawTail = sawTail || tailOnly > 0

					skip.foldAndCommit(t, ds)
					plain.foldAndCommit(t, dp)
					if !bytes.Equal(skip.keeper.Parity(), plain.keeper.Parity()) {
						t.Fatalf("epoch %d: parity diverges", epoch)
					}
				}
				// Parity must equal a fresh encode of the final images.
				ref, err := NewMKeeper(0, 1, 2, map[string][]byte{"a": skip.mem.CommittedImage(), "b": mate})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(skip.keeper.Parity(), ref.Parity()) {
					t.Fatal("parity after skipped captures is not the encode of the committed images")
				}
				if !sawSkip || !sawTail {
					t.Fatalf("mix never exercised a skip (%v) or a last-byte-only change (%v)", sawSkip, sawTail)
				}
			})
		}
	}
}
