package checkpoint

import (
	"bytes"
	"math/rand"
	"testing"

	"dvdc/internal/vm"
)

func newMachine(t *testing.T, pages, pageSize int) *vm.Machine {
	t.Helper()
	m, err := vm.NewMachine("vm-test", pages, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func scribble(m *vm.Machine, seed int64, writes int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < writes; i++ {
		page := rng.Intn(m.NumPages())
		data := make([]byte, m.PageSize())
		rng.Read(data)
		if err := m.WritePage(page, data); err != nil {
			panic(err)
		}
	}
}

func TestCaptureFullRoundTrip(t *testing.T) {
	m := newMachine(t, 16, 64)
	scribble(m, 1, 40)
	want := m.Image()
	c := CaptureFull(m)
	if c.Kind != Full || len(c.Pages) != 16 {
		t.Fatalf("full capture: kind=%v pages=%d", c.Kind, len(c.Pages))
	}
	if m.DirtyCount() != 0 {
		t.Error("capture should open a clean epoch")
	}
	img := make([]byte, m.ImageBytes())
	if err := c.ApplyTo(img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) {
		t.Error("materialized image differs from machine at capture")
	}
}

func TestCaptureIncrementalOnlyDirtyPages(t *testing.T) {
	m := newMachine(t, 32, 64)
	CaptureFull(m) // base
	m.TouchPage(3, 1)
	m.TouchPage(17, 2)
	c := CaptureIncremental(m)
	if len(c.Pages) != 2 {
		t.Fatalf("incremental captured %d pages, want 2", len(c.Pages))
	}
	if c.Pages[0].Index != 3 || c.Pages[1].Index != 17 {
		t.Errorf("captured pages %d,%d; want 3,17", c.Pages[0].Index, c.Pages[1].Index)
	}
	if c.PayloadBytes() != 2*64 {
		t.Errorf("payload %d, want 128", c.PayloadBytes())
	}
}

func TestStoreChainMaterializesLatest(t *testing.T) {
	m := newMachine(t, 16, 64)
	scribble(m, 2, 30)
	st, err := NewStore(CaptureFull(m))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		scribble(m, int64(10+round), 10)
		want := m.Image()
		if err := st.Apply(CaptureIncremental(m)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.Image(), want) {
			t.Fatalf("round %d: store image diverged", round)
		}
	}
	if st.Applied() != 6 {
		t.Errorf("Applied = %d, want 6", st.Applied())
	}
}

func TestStoreRejectsOutOfOrderEpoch(t *testing.T) {
	m := newMachine(t, 4, 32)
	st, _ := NewStore(CaptureFull(m))
	m.TouchPage(0, 1)
	c1 := CaptureIncremental(m)
	m.TouchPage(1, 2)
	c2 := CaptureIncremental(m)
	if err := st.Apply(c2); err == nil {
		t.Error("skipping an epoch should fail")
	}
	if err := st.Apply(c1); err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(c1); err == nil {
		t.Error("replaying an epoch should fail")
	}
}

func TestStoreRejectsWrongVM(t *testing.T) {
	a := newMachine(t, 4, 32)
	b, _ := vm.NewMachine("other", 4, 32)
	st, _ := NewStore(CaptureFull(a))
	if err := st.Apply(CaptureIncremental(b)); err == nil {
		t.Error("checkpoint from another VM should be rejected")
	}
}

func TestStoreRequiresFullBase(t *testing.T) {
	m := newMachine(t, 4, 32)
	CaptureFull(m)
	m.TouchPage(0, 1)
	if _, err := NewStore(CaptureIncremental(m)); err == nil {
		t.Error("incremental base should be rejected")
	}
}

func TestCompressedDeltaRoundTrip(t *testing.T) {
	m := newMachine(t, 16, 256)
	scribble(m, 3, 40)
	st, _ := NewStore(CaptureFull(m))
	// Small in-place mutations compress well.
	m.MutatePage(5, func(p []byte) { p[0]++ })
	m.MutatePage(9, func(p []byte) { p[100] ^= 0xff })
	want := m.Image()
	c, err := CaptureCompressedDelta(m, st.ImageRef())
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != CompressedDelta || len(c.Pages) != 2 {
		t.Fatalf("kind=%v pages=%d", c.Kind, len(c.Pages))
	}
	if c.PayloadBytes() >= 2*256 {
		t.Errorf("compressed payload %d not smaller than raw 512", c.PayloadBytes())
	}
	if err := st.Apply(c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Image(), want) {
		t.Error("compressed-delta chain diverged")
	}
}

// TestCompressedDeltaTailBytesAndScratchReuse pins the XOR kernel seam in
// capture and apply: on page sizes with a vector body plus a tail, a change
// in a page's last byte must survive the round trip (neither side may skip
// the tail), and the next page — captured through the same scratch buffer —
// must not inherit it.
func TestCompressedDeltaTailBytesAndScratchReuse(t *testing.T) {
	for _, ps := range []int{257, 4097} {
		m := newMachine(t, 4, ps)
		scribble(m, 3, 40)
		st, _ := NewStore(CaptureFull(m))
		m.MutatePage(1, func(p []byte) { p[ps-1] ^= 0x81 })
		m.MutatePage(2, func(p []byte) { p[0] ^= 0x18 })
		want := m.Image()
		c, err := CaptureCompressedDelta(m, st.ImageRef())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range c.Pages {
			if p.Data[0] != 1 {
				t.Fatalf("ps=%d page %d stored raw; the test needs the compressed-XOR branch", ps, p.Index)
			}
		}
		if err := st.Apply(c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.Image(), want) {
			t.Errorf("ps=%d: compressed-delta round trip diverged", ps)
		}
	}
}

func TestCompressedDeltaIncompressibleFallsBackToRaw(t *testing.T) {
	m := newMachine(t, 4, 128)
	st, _ := NewStore(CaptureFull(m))
	// Random page content: the XOR delta is random, flate cannot shrink it.
	data := make([]byte, 128)
	rand.New(rand.NewSource(9)).Read(data)
	if err := m.WritePage(2, data); err != nil {
		t.Fatal(err)
	}
	want := m.Image()
	c, err := CaptureCompressedDelta(m, st.ImageRef())
	if err != nil {
		t.Fatal(err)
	}
	if c.Pages[0].Data[0] != 0 {
		t.Error("incompressible page should be stored raw (tag 0)")
	}
	if err := st.Apply(c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Image(), want) {
		t.Error("raw fallback diverged")
	}
}

func TestCompressedDeltaBaseMismatch(t *testing.T) {
	m := newMachine(t, 4, 32)
	if _, err := CaptureCompressedDelta(m, make([]byte, 10)); err == nil {
		t.Error("wrong-size base should fail")
	}
}

func TestChangedRegionsReturnsOldContent(t *testing.T) {
	m := newMachine(t, 8, 32)
	scribble(m, 4, 16)
	st, _ := NewStore(CaptureFull(m))
	oldPage3 := append([]byte(nil), st.ImageRef()[3*32:4*32]...)
	m.TouchPage(3, 99)
	c := CaptureIncremental(m)
	regions, err := st.ChangedRegions(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 || regions[0].Index != 3 {
		t.Fatalf("regions = %+v", regions)
	}
	if !bytes.Equal(regions[0].Data, oldPage3) {
		t.Error("ChangedRegions did not return pre-apply content")
	}
}

func TestApplyToWrongSizeImage(t *testing.T) {
	m := newMachine(t, 4, 32)
	c := CaptureFull(m)
	if err := c.ApplyTo(make([]byte, 10)); err == nil {
		t.Error("wrong-size image should fail")
	}
}

func TestKindString(t *testing.T) {
	if Full.String() != "full" || Incremental.String() != "incremental" ||
		CompressedDelta.String() != "compressed-delta" {
		t.Error("Kind.String wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}
