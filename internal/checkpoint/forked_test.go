package checkpoint

import (
	"bytes"
	"testing"
)

func TestForkSnapshotIsolatesFromLaterWrites(t *testing.T) {
	m := newMachine(t, 8, 64)
	scribble(m, 5, 20)
	want := m.Image()
	f := Fork(m)
	defer f.Release()
	// Mutate heavily after the fork; snapshot must not see it.
	scribble(m, 6, 50)
	for i := 0; i < m.NumPages(); i++ {
		if !bytes.Equal(f.page(i), want[i*64:(i+1)*64]) {
			t.Fatalf("page %d of the forked snapshot polluted by post-fork writes", i)
		}
	}
}

func TestForkCopiedBytesProportionalToWrites(t *testing.T) {
	m := newMachine(t, 100, 64)
	f := Fork(m)
	defer f.Release()
	if f.CopiedBytes() != 0 {
		t.Errorf("fresh fork copied %d bytes, want 0", f.CopiedBytes())
	}
	m.TouchPage(1, 1)
	m.TouchPage(1, 2) // same page: only first write copies
	m.TouchPage(2, 3)
	if f.CopiedBytes() != 2*64 {
		t.Errorf("copied %d bytes, want 128", f.CopiedBytes())
	}
}

func TestForkMaterializeIncremental(t *testing.T) {
	m := newMachine(t, 16, 64)
	CaptureFull(m)
	m.TouchPage(4, 1)
	m.TouchPage(9, 2)
	f := Fork(m)
	defer f.Release()
	// Post-fork write to page 4 must not change the captured increment.
	m.TouchPage(4, 99)
	c, err := f.MaterializeIncremental()
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch != 1 {
		t.Errorf("incremental Epoch = %d, want 1 (the epoch the fork closed)", c.Epoch)
	}
	if len(c.Pages) != 2 || c.Pages[0].Index != 4 || c.Pages[1].Index != 9 {
		t.Fatalf("incremental pages: %+v", c.Pages)
	}
	// Page 4's content must be the pre-overwrite (stamp 1) version.
	var stamp uint64
	for i := 0; i < 8; i++ {
		stamp |= uint64(c.Pages[0].Data[i]) << (8 * i)
	}
	if stamp != 1 {
		t.Errorf("captured stamp %d, want 1 (fork-time content)", stamp)
	}
}

func TestForkReleaseStopsCopying(t *testing.T) {
	m := newMachine(t, 8, 64)
	f := Fork(m)
	f.Release()
	m.TouchPage(0, 1)
	if f.CopiedBytes() != 0 {
		t.Error("released fork still copying")
	}
	if _, err := f.MaterializeIncremental(); err == nil {
		t.Error("materializing a released fork should fail")
	}
	f.Release() // double release is a no-op
}

func TestForkOpensNewEpoch(t *testing.T) {
	m := newMachine(t, 8, 64)
	m.TouchPage(0, 1)
	e := m.Epoch()
	f := Fork(m)
	defer f.Release()
	if m.Epoch() != e+1 {
		t.Error("fork should advance the epoch")
	}
	if m.DirtyCount() != 0 {
		t.Error("fork should clear dirty bits")
	}
	if got := f.DirtyAtFork(); len(got) != 1 || got[0] != 0 {
		t.Errorf("DirtyAtFork = %v, want [0]", got)
	}
}

func TestConcurrentForksIndependent(t *testing.T) {
	m := newMachine(t, 8, 64)
	f1 := Fork(m)
	defer f1.Release()
	m.TouchPage(0, 10)
	f2 := Fork(m)
	defer f2.Release()
	m.TouchPage(0, 20)

	s1 := f1.page(0)[0]
	s2 := f2.page(0)[0]
	if s1 != 0 {
		t.Errorf("f1 page0 stamp byte %d, want 0 (pre-write)", s1)
	}
	if s2 != 10 {
		t.Errorf("f2 page0 stamp byte %d, want 10", s2)
	}
}
