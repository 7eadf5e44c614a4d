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
		if err := st.Apply(incremental(t, m)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.image, want) {
			t.Fatalf("round %d: store image diverged", round)
		}
	}
}

func TestStoreRejectsOutOfOrderEpoch(t *testing.T) {
	m := newMachine(t, 4, 32)
	st, _ := NewStore(CaptureFull(m))
	m.TouchPage(0, 1)
	c1 := incremental(t, m)
	m.TouchPage(1, 2)
	c2 := incremental(t, m)
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
	if err := st.Apply(incremental(t, b)); err == nil {
		t.Error("checkpoint from another VM should be rejected")
	}
}

func TestStoreRequiresFullBase(t *testing.T) {
	m := newMachine(t, 4, 32)
	CaptureFull(m)
	m.TouchPage(0, 1)
	if _, err := NewStore(incremental(t, m)); err == nil {
		t.Error("incremental base should be rejected")
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
