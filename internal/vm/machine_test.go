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
	if m.DirtyCount() != 0 {
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

// TestRevertDirtyCopiesOnlyDirtyPages: a page with a pre-image takes it back,
// a page without one keeps its own bytes, no write hook runs, and the machine
// ends clean at the same dirty-tracking epoch; a table of the wrong length
// panics.
func TestRevertDirtyCopiesOnlyDirtyPages(t *testing.T) {
	m, _ := NewMachine("x", 4, 8)
	m.TouchPage(3, 9)
	m.BeginEpoch() // page 3's write is committed: it has no pre-image
	pre := make([][]byte, m.NumPages())
	pre[1] = bytes.Clone(m.Page(1))
	m.TouchPage(1, 8)
	m.TouchPage(2, 8) // dirty without an entry: left as it is
	hooked := 0
	m.AddWriteHook(func(int, []byte) { hooked++ })
	e := m.Epoch()
	m.RevertDirty(pre)
	if !bytes.Equal(m.Page(1), make([]byte, 8)) || m.Page(2)[0] != 8 || m.Page(3)[0] != 9 {
		t.Errorf("after RevertDirty pages 1-3 = %v %v %v", m.Page(1), m.Page(2), m.Page(3))
	}
	if m.DirtyCount() != 0 || m.IsDirty(1) || m.IsDirty(2) || m.Epoch() != e || hooked != 0 {
		t.Errorf("RevertDirty left %d dirty pages, epoch %d -> %d, ran %d hooks", m.DirtyCount(), e, m.Epoch(), hooked)
	}
	defer func() {
		if recover() == nil {
			t.Error("a short pre-image table should panic")
		}
	}()
	m.RevertDirty(pre[:3])
}

// TestNewMachineFromTakesOwnership: the machine's memory is img itself, clean,
// cut into pageSize pages, with no copy; an image that is not a positive
// number of pages is refused.
func TestNewMachineFromTakesOwnership(t *testing.T) {
	img := []byte("abcdefghijkl")
	m, err := NewMachineFrom("x", 4, img)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID() != "x" || m.NumPages() != 3 || m.PageSize() != 4 || m.DirtyCount() != 0 || !bytes.Equal(m.Image(), []byte("abcdefghijkl")) {
		t.Fatalf("machine %q: %d pages of %d, %d dirty, image %q", m.ID(), m.NumPages(), m.PageSize(), m.DirtyCount(), m.Image())
	}
	for i := 0; i < m.NumPages(); i++ {
		if &m.Page(i)[0] != &img[i*4] || cap(m.Page(i)) != 4 {
			t.Fatalf("page %d is not img[%d:%d] with its capacity cut at the page", i, i*4, i*4+4)
		}
	}
	for _, bad := range []struct{ ps, n int }{{4, 0}, {4, 10}, {0, 4}, {-4, 8}} {
		if _, err := NewMachineFrom("x", bad.ps, make([]byte, bad.n)); err == nil {
			t.Errorf("NewMachineFrom accepted a %d-byte image of %d-byte pages", bad.n, bad.ps)
		}
	}
}

// TestTouchPageSmallPages: on pages of 1 to 8 bytes TouchPage writes the
// stamp's first min(8, page size) little-endian bytes — on an 8-byte page the
// whole stamp, as on any larger one — and touches nothing else.
func TestTouchPageSmallPages(t *testing.T) {
	const stamp = 0x0807060504030201
	for ps := 1; ps <= 8; ps++ {
		m, err := NewMachine("x", 3, ps)
		if err != nil {
			t.Fatal(err)
		}
		m.TouchPage(1, stamp)
		want := make([]byte, 3*ps)
		for j := 0; j < ps; j++ {
			want[ps+j] = byte(j + 1)
		}
		if !bytes.Equal(m.Image(), want) || m.DirtyCount() != 1 || !m.IsDirty(1) {
			t.Errorf("page size %d: image %v, %d dirty; want %v with page 1 dirty", ps, m.Image(), m.DirtyCount(), want)
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
		return m.DirtyCount() == len(m.DirtyPages())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
