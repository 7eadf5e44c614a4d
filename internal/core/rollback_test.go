package core

import (
	"bytes"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"testing"
)

// rollbackRun replays one seeded sequence of guest writes, store-backs,
// stages (skip on and off), advances, unstages and rollbacks — some of them
// between a Stage and its Advance — on two members built from one image. The
// member under test rolls back with rollback; its twin respawns from a copy
// of its whole committed image with NewMemberAt. It returns the first point
// where the two differ in live memory, committed image or dirty set, or where
// a rollback leaves a page dirty or moves an epoch.
func rollbackRun(seed int64, ps int, rollback func(mem *Member)) error {
	const pages, ops = 16, 300
	rng := rand.New(rand.NewSource(seed))
	img := make([]byte, pages*ps)
	rng.Read(img)
	mem, err := NewMemberAt("r", ps, bytes.Clone(img), 5)
	if err != nil {
		return err
	}
	twin, err := NewMemberAt("r", ps, bytes.Clone(img), 5)
	if err != nil {
		return err
	}
	m, tm := mem.Machine(), twin.Machine()
	var staged, twinStaged *Delta
	var stamp uint64
	var plain, mid int // rollbacks with nothing staged, and between Stage and Advance
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 4: // a guest write
			page, fresh := rng.Intn(pages), make([]byte, ps)
			rng.Read(fresh)
			stamp++
			for _, x := range []*Member{mem, twin} {
				if ps >= 8 {
					x.Machine().TouchPage(page, stamp)
				} else if err := x.Machine().WritePage(page, fresh); err != nil {
					return err
				}
			}
		case k == 4: // a store-back: dirty, unchanged
			page := rng.Intn(pages)
			m.MutatePage(page, func([]byte) {})
			tm.MutatePage(page, func([]byte) {})
		case k == 5 && staged == nil:
			skip := rng.Intn(2) == 0
			staged, _, _ = mem.Stage(skip)
			twinStaged, _, _ = twin.Stage(skip)
		case k == 6 && staged != nil:
			// Refused by both when the guest wrote since Stage.
			errA, errB := mem.Advance(staged.Epoch), twin.Advance(twinStaged.Epoch)
			if (errA == nil) != (errB == nil) {
				return fmt.Errorf("op %d: advance disagrees: %v vs %v", op, errA, errB)
			}
			if errA == nil {
				staged, twinStaged = nil, nil
			}
		case k == 7 && staged != nil:
			mem.Unstage()
			twin.Unstage()
			staged, twinStaged = nil, nil
		case k >= 8:
			if staged != nil {
				mid++
			} else {
				plain++
			}
			epoch, mepoch := mem.Epoch(), m.Epoch()
			rollback(mem)
			if twin, err = NewMemberAt("r", ps, twin.CommittedImage(), twin.Epoch()); err != nil {
				return err
			}
			tm = twin.Machine()
			staged, twinStaged = nil, nil
			if m.DirtyCount() != 0 || mem.Epoch() != epoch || m.Epoch() != mepoch {
				return fmt.Errorf("op %d: after rollback %d pages dirty, epoch %d -> %d, machine epoch %d -> %d",
					op, m.DirtyCount(), epoch, mem.Epoch(), mepoch, m.Epoch())
			}
		}
		if !bytes.Equal(m.Image(), tm.Image()) {
			return fmt.Errorf("op %d: live memory differs from the full-reload twin", op)
		}
		if !bytes.Equal(mem.CommittedImage(), twin.CommittedImage()) {
			return fmt.Errorf("op %d: committed images differ", op)
		}
		if !slices.Equal(m.DirtyPages(), tm.DirtyPages()) {
			return fmt.Errorf("op %d: dirty sets differ: %v vs %v", op, m.DirtyPages(), tm.DirtyPages())
		}
	}
	if plain == 0 || mid == 0 {
		return fmt.Errorf("sequence rolled back %d times with nothing staged and %d between Stage and Advance; want both", plain, mid)
	}
	return nil
}

// TestRollbackMatchesFullReload: Rollback copies back only the pages with a
// pre-image, and over random sequences it leaves the machine byte for byte
// where a whole-image reload of the committed image does, clean, at the same
// epochs. The negative control, a rollback that copies back only the dirty
// pages' pre-images and so forgets a staged capture's, must be caught.
func TestRollbackMatchesFullReload(t *testing.T) {
	forgetStaged := func(mem *Member) {
		pre := make([][]byte, len(mem.pre))
		for _, i := range mem.machine.DirtyPages() {
			pre[i] = mem.pre[i]
		}
		mem.machine.RevertDirty(pre)
		mem.releaseAll()
	}
	caught := 0
	for _, ps := range []int{1, 7, 64, 4096} {
		for seed := int64(1); seed <= 8; seed++ {
			if err := rollbackRun(seed, ps, (*Member).Rollback); err != nil {
				t.Errorf("ps=%d seed=%d: %v", ps, seed, err)
			}
			if rollbackRun(seed, ps, forgetStaged) != nil {
				caught++
			}
		}
	}
	if caught != 32 {
		t.Errorf("a rollback that ignores the staged pages diverged on only %d of 32 sequences", caught)
	}
}

// TestNewMemberAtCopiesNothing: a respawned member is built over the buffer
// handed to it — the machine's pages alias it, and all it allocates is
// bookkeeping, less than one page — at the given epoch, clean, with no staged
// capture; the first guest write keeps the page's committed bytes as a
// pre-image; an image that is not a positive number of pages is refused.
func TestNewMemberAtCopiesNothing(t *testing.T) {
	const pages, ps = 16, 64 << 10
	img := make([]byte, pages*ps)
	copy(img, "0123456789abcdef")
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	mem, err := NewMemberAt("n", ps, img, 9)
	goruntime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= ps {
		t.Errorf("NewMemberAt of a %d-byte image allocated %d bytes; want under one %d-byte page", pages*ps, got, ps)
	}
	m := mem.Machine()
	if m.ID() != "n" || m.NumPages() != pages || m.DirtyCount() != 0 || mem.Epoch() != 9 || mem.Staged() != nil {
		t.Fatalf("machine %q: %d pages, %d dirty, epoch %d, staged %v", m.ID(), m.NumPages(), m.DirtyCount(), mem.Epoch(), mem.Staged())
	}
	for i := 0; i < pages; i++ {
		if &m.Page(i)[0] != &img[i*ps] {
			t.Fatalf("page %d is a copy, not the buffer handed over", i)
		}
	}
	if err := m.WritePage(0, []byte("zzzz")); err != nil {
		t.Fatal(err)
	}
	if got := mem.CommittedImage()[:16]; string(got) != "0123456789abcdef" || string(img[:4]) != "zzzz" {
		t.Errorf("after a guest write: committed %q, live %q", got, img[:16])
	}
	for _, bad := range []struct{ ps, n int }{{4, 0}, {4, 6}, {0, 4}, {-4, 8}} {
		if _, err := NewMemberAt("n", bad.ps, make([]byte, bad.n), 0); err == nil {
			t.Errorf("NewMemberAt accepted a %d-byte image of %d-byte pages", bad.n, bad.ps)
		}
	}
}
