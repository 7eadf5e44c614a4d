package vm

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine("x", 0, 4096); err == nil {
		t.Error("zero pages should fail")
	}
	if _, err := NewMachine("x", 4, 0); err == nil {
		t.Error("zero page size should fail")
	}
	m, err := NewMachine("vm0", 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID() != "vm0" || m.NumPages() != 8 || m.PageSize() != 512 {
		t.Error("geometry accessors wrong")
	}
	if m.ImageBytes() != 8*512 {
		t.Errorf("ImageBytes = %d, want %d", m.ImageBytes(), 8*512)
	}
}

func TestFreshMachineIsZeroedAndClean(t *testing.T) {
	m, _ := NewMachine("x", 4, 64)
	if m.DirtyCount() != 0 || m.DirtyBytes() != 0 {
		t.Error("fresh machine should be clean")
	}
	for i := 0; i < 4; i++ {
		for _, b := range m.Page(i) {
			if b != 0 {
				t.Fatal("fresh page not zeroed")
			}
		}
	}
}

func TestWritePageMarksDirtyOnce(t *testing.T) {
	m, _ := NewMachine("x", 4, 64)
	if err := m.WritePage(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePage(1, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if m.DirtyCount() != 1 {
		t.Errorf("DirtyCount = %d, want 1 (same page twice)", m.DirtyCount())
	}
	if !m.IsDirty(1) || m.IsDirty(0) {
		t.Error("dirty bits wrong")
	}
	if !bytes.Equal(m.Page(1)[:5], []byte("world")) {
		t.Error("page content wrong")
	}
}

func TestWritePageTooLarge(t *testing.T) {
	m, _ := NewMachine("x", 2, 8)
	if err := m.WritePage(0, make([]byte, 9)); err == nil {
		t.Error("oversized write should fail")
	}
}

func TestPageOutOfRangePanics(t *testing.T) {
	m, _ := NewMachine("x", 2, 8)
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Page(%d) should panic", i)
				}
			}()
			m.Page(i)
		}()
	}
}

func TestBeginEpochClearsDirty(t *testing.T) {
	m, _ := NewMachine("x", 4, 64)
	m.TouchPage(0, 1)
	m.TouchPage(3, 2)
	if m.DirtyCount() != 2 {
		t.Fatalf("DirtyCount = %d, want 2", m.DirtyCount())
	}
	if got := m.DirtyPages(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("DirtyPages = %v, want [0 3]", got)
	}
	e := m.Epoch()
	m.BeginEpoch()
	if m.DirtyCount() != 0 || m.Epoch() != e+1 {
		t.Error("BeginEpoch did not reset state")
	}
}

func TestImageRoundTrip(t *testing.T) {
	m, _ := NewMachine("x", 4, 16)
	m.TouchPage(2, 0xdeadbeef)
	img := m.Image()
	if int64(len(img)) != m.ImageBytes() {
		t.Fatalf("image length %d, want %d", len(img), m.ImageBytes())
	}
	m2, _ := NewMachine("y", 4, 16)
	if err := m2.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	if !m.Equal(m2) {
		t.Error("restored machine differs")
	}
	if m2.DirtyCount() != 0 {
		t.Error("LoadImage should leave the machine clean")
	}
	if err := m2.LoadImage(img[:10]); err == nil {
		t.Error("short image should fail")
	}
}

// TestRevertDirtyCopiesOnlyDirtyPages: dirty pages take img's bytes, a clean
// page keeps its own even where img differs, and the machine ends clean at
// the same dirty-tracking epoch.
func TestRevertDirtyCopiesOnlyDirtyPages(t *testing.T) {
	m, _ := NewMachineFrom("x", 8, make([]byte, 32))
	img := m.Image()
	m.TouchPage(1, 7)
	m.TouchPage(3, 9)
	m.BeginEpoch() // page 3's write is now clean: RevertDirty must not see it
	m.TouchPage(1, 8)
	e := m.Epoch()
	if err := m.RevertDirty(img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Page(1), img[8:16]) || bytes.Equal(m.Page(3), img[24:32]) {
		t.Errorf("after RevertDirty page 1 = %v, page 3 = %v", m.Page(1), m.Page(3))
	}
	if m.DirtyCount() != 0 || m.IsDirty(1) || m.Epoch() != e {
		t.Errorf("RevertDirty left %d dirty pages, epoch %d -> %d", m.DirtyCount(), e, m.Epoch())
	}
	if err := m.RevertDirty(img[:8]); err == nil {
		t.Error("short image should fail")
	}
}

// TestNewMachineFromCopies: the machine holds img's bytes in memory of its
// own, clean, cut into pageSize pages; an image that is not a positive
// number of pages is refused.
func TestNewMachineFromCopies(t *testing.T) {
	img := []byte("abcdefghijkl")
	m, err := NewMachineFrom("x", 4, img)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID() != "x" || m.NumPages() != 3 || m.PageSize() != 4 || m.DirtyCount() != 0 || !bytes.Equal(m.Image(), img) {
		t.Fatalf("machine %q: %d pages of %d, %d dirty, image %q", m.ID(), m.NumPages(), m.PageSize(), m.DirtyCount(), m.Image())
	}
	img[0] = 'z'
	if m.Page(0)[0] != 'a' {
		t.Error("the machine aliases the image it was built from")
	}
	for _, bad := range []struct{ ps, n int }{{4, 0}, {4, 10}, {0, 4}, {-4, 8}} {
		if _, err := NewMachineFrom("x", bad.ps, make([]byte, bad.n)); err == nil {
			t.Errorf("NewMachineFrom accepted a %d-byte image of %d-byte pages", bad.n, bad.ps)
		}
	}
}

func TestMutatePage(t *testing.T) {
	m, _ := NewMachine("x", 2, 8)
	m.MutatePage(0, func(p []byte) { p[7] = 0xff })
	if m.Page(0)[7] != 0xff || !m.IsDirty(0) {
		t.Error("MutatePage did not apply or mark dirty")
	}
}

func TestPageHashChangesWithContent(t *testing.T) {
	m, _ := NewMachine("x", 2, 64)
	h0 := m.PageHash(0)
	if m.PageHash(1) != h0 {
		t.Error("identical pages should hash identically")
	}
	m.TouchPage(0, 42)
	if m.PageHash(0) == h0 {
		t.Error("hash should change when content changes")
	}
	hashes := m.HashAll()
	if len(hashes) != 2 || hashes[0] != m.PageHash(0) {
		t.Error("HashAll inconsistent with PageHash")
	}
}

func TestEqualDetectsGeometryAndContent(t *testing.T) {
	a, _ := NewMachine("a", 2, 8)
	b, _ := NewMachine("b", 2, 8)
	if !a.Equal(b) {
		t.Error("fresh identical machines should be equal")
	}
	c, _ := NewMachine("c", 4, 8)
	if a.Equal(c) {
		t.Error("different geometry should not be equal")
	}
	b.TouchPage(1, 9)
	if a.Equal(b) {
		t.Error("different content should not be equal")
	}
}

// Property: DirtyCount always equals len(DirtyPages) under random writes.
func TestQuickDirtyAccounting(t *testing.T) {
	f := func(writes []uint8) bool {
		m, err := NewMachine("q", 16, 32)
		if err != nil {
			return false
		}
		for i, w := range writes {
			m.TouchPage(int(w)%16, uint64(i))
		}
		return m.DirtyCount() == len(m.DirtyPages()) &&
			m.DirtyBytes() == int64(m.DirtyCount())*32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
