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

// incremental captures m's dirty pages through a fork, the one incremental
// capture the package has, and opens a new epoch.
func incremental(t *testing.T, m *vm.Machine) *Checkpoint {
	t.Helper()
	f := Fork(m)
	defer f.Release()
	c, err := f.MaterializeIncremental()
	if err != nil {
		t.Fatal(err)
	}
	return c
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

// TestApplyToChainMaterializesLatest replays a full base and a chain of
// increments through ApplyTo: after each one the image equals the machine's.
func TestApplyToChainMaterializesLatest(t *testing.T) {
	m := newMachine(t, 16, 64)
	scribble(m, 2, 30)
	img := make([]byte, m.ImageBytes())
	if err := CaptureFull(m).ApplyTo(img); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		scribble(m, int64(10+round), 10)
		want := m.Image()
		if err := incremental(t, m).ApplyTo(img); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, want) {
			t.Fatalf("round %d: materialized image diverged", round)
		}
	}
}

func TestApplyToWrongSizeImage(t *testing.T) {
	m := newMachine(t, 4, 32)
	c := CaptureFull(m)
	if err := c.ApplyTo(make([]byte, 10)); err == nil {
		t.Error("wrong-size image should fail")
	}
}

// TestApplyToRefusesOverflowingGeometry gives ApplyTo a geometry whose
// NumPages*PageSize wraps to the image's length: (2^62+32)*4 is 2^64+128.
// It must refuse it rather than slice the image at a wrapped offset.
func TestApplyToRefusesOverflowingGeometry(t *testing.T) {
	c := &Checkpoint{Kind: Incremental, NumPages: 1<<62 + 32, PageSize: 4,
		Pages: []PageRecord{{Index: 1 << 61, Data: make([]byte, 4)}}}
	if err := c.ApplyTo(make([]byte, 128)); err == nil {
		t.Fatal("a geometry whose size wraps to the image's length was accepted")
	}
}

func TestKindString(t *testing.T) {
	if Full.String() != "full" || Incremental.String() != "incremental" {
		t.Error("Kind.String wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestCompressHelper(t *testing.T) {
	c, err := Compress(make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(c) >= 4096 {
		t.Errorf("zero page did not compress: %d bytes", len(c))
	}
}
