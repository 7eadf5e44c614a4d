package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dvdc/internal/analytic"
	"dvdc/internal/cluster"
	"dvdc/internal/vm"
)

func TestUnstageKeepsCommittedAndRemarksDirty(t *testing.T) {
	m, err := vm.NewMachine("u", 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMember(m)
	if err != nil {
		t.Fatal(err)
	}
	m.TouchPage(1, 11)
	m.TouchPage(5, 12)
	before := mem.CommittedImage()
	d, unchanged, err := mem.Stage(false)
	if err != nil || d.Epoch != 1 || d.PageCount() != 2 || unchanged != 0 || m.DirtyCount() != 0 {
		t.Fatalf("stage: %v, epoch %d, %d pages, %d unchanged, %d still dirty", err, d.Epoch, d.PageCount(), unchanged, m.DirtyCount())
	}
	if !bytes.Equal(mem.CommittedImage(), before) || mem.Epoch() != 0 {
		t.Fatal("stage moved the committed image or the epoch")
	}
	mem.Unstage()
	if !bytes.Equal(mem.CommittedImage(), before) || mem.Epoch() != 0 {
		t.Error("unstage moved the committed image or the epoch")
	}
	// The staged pages must be dirty again so the next capture re-ships them.
	if !m.IsDirty(1) || !m.IsDirty(5) || m.DirtyCount() != 2 {
		t.Error("unstaged pages not re-marked dirty")
	}
	// A fresh capture after the unstage must produce an equivalent delta.
	d2, err := mem.CaptureDeltaInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Epoch != 1 || len(d2.Pages) != 2 {
		t.Errorf("re-capture: epoch %d, %d pages", d2.Epoch, len(d2.Pages))
	}
	if bytes.Equal(mem.CommittedImage(), before) || mem.Epoch() != 1 {
		t.Error("capture should advance the committed image and the epoch")
	}
}

// TestAdvanceValidation: Advance commits only the capture staged for the
// epoch it names, only while the guest has stood still since Stage, a refusal
// changes nothing, and with nothing staged it is a no-op.
func TestAdvanceValidation(t *testing.T) {
	m, _ := vm.NewMachine("u", 4, 32)
	mem, _ := NewMember(m)
	m.TouchPage(0, 1)
	before := mem.CommittedImage()
	d, _, _ := mem.Stage(false)
	// The error must name the two epochs and nothing else — it travels in the
	// commit reply and the flight recorder.
	for _, stale := range []uint64{0, 99} {
		if err := mem.Advance(stale); err == nil {
			t.Errorf("advance to epoch %d with epoch 1 staged should fail", stale)
		} else if msg := err.Error(); len(msg) > 80 || !strings.Contains(msg, fmt.Sprintf("epoch %d,", stale)) || !strings.Contains(msg, "staged for epoch 1") {
			t.Errorf("wrong-epoch error should be short and name epochs %d and 1: %q", stale, msg)
		}
	}
	// A guest that ran between Stage and Advance breaks the invariant the
	// streamed delta rests on; the capture must not commit.
	m.TouchPage(2, 7)
	if err := mem.Advance(d.Epoch); err == nil || !strings.Contains(err.Error(), "guest dirtied 1 pages") {
		t.Errorf("advance after a guest write: %v", err)
	}
	if !bytes.Equal(mem.CommittedImage(), before) || mem.Epoch() != 0 || mem.Staged() != d {
		t.Fatal("a refused advance changed the member")
	}
	mem.Unstage()
	d, _, _ = mem.Stage(false)
	if err := mem.Advance(d.Epoch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem.CommittedImage(), m.Image()) || mem.Epoch() != 1 || mem.Staged() != nil {
		t.Error("advance did not bring the committed image and epoch up to the machine")
	}
	// A repeated commit finds nothing staged: a no-op.
	m.TouchPage(3, 8)
	if err := mem.Advance(d.Epoch); err != nil || mem.Epoch() != 1 || !m.IsDirty(3) {
		t.Errorf("a second advance of the same capture: %v, epoch %d", err, mem.Epoch())
	}
}

// TestCaptureDeltaMatchesBytewiseReference pins the capture kernel seam: on
// page sizes around the kernel's vector and tail paths, with an allocator
// handing out 0xFF-poisoned buffers, every delta byte must equal cur ^ old
// computed one byte at a time (a skipped tail byte would ship 0xFF^… garbage
// into parity) — per page through CaptureDeltaInto, and over byte ranges that
// start and end inside pages through DeltaInto, the way the runtime streams
// them — and capture must advance the committed image to the machine's.
func TestCaptureDeltaMatchesBytewiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	poisoned := func(n int) []byte { return bytes.Repeat([]byte{0xFF}, n) }
	for _, ps := range []int{1, 7, 4095, 4096, 4097} {
		const pages = 9
		m, err := vm.NewMachine("k", pages, ps)
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, pages*ps)
		rng.Read(img)
		if err := m.LoadImage(img); err != nil {
			t.Fatal(err)
		}
		mem, err := NewMember(m)
		if err != nil {
			t.Fatal(err)
		}
		dirty := []int{0, 3, 4, pages - 1}
		want := make(map[int][]byte, len(dirty))
		for _, i := range dirty {
			m.MutatePage(i, func(page []byte) { rng.Read(page) })
			x := make([]byte, ps)
			for j := range x {
				x[j] = m.Page(i)[j] ^ img[i*ps+j]
			}
			want[i] = x
		}
		// The two-page run 3..4, cut at every offset: both halves cross or
		// touch the page boundary.
		run := append(append([]byte(nil), want[3]...), want[4]...)
		for cut := 0; cut <= len(run); cut += max(1, len(run)/13) {
			lo, hi := poisoned(cut), poisoned(len(run)-cut)
			mem.deltaInto(lo, 3*ps)
			mem.deltaInto(hi, 3*ps+cut)
			if !bytes.Equal(lo, run[:cut]) || !bytes.Equal(hi, run[cut:]) {
				t.Fatalf("ps=%d: DeltaInto over [3p,+%d) and [3p+%d,5p) diverges from bytewise cur ^ old", ps, cut, cut)
			}
		}
		d, err := mem.CaptureDeltaInto(poisoned)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Pages) != len(dirty) || d.Epoch != 1 {
			t.Fatalf("ps=%d: captured %d pages at epoch %d, want %d at 1", ps, len(d.Pages), d.Epoch, len(dirty))
		}
		for _, p := range d.Pages {
			if !bytes.Equal(p.Data, want[p.Index]) {
				t.Fatalf("ps=%d page %d: delta diverges from bytewise cur ^ old", ps, p.Index)
			}
		}
		if !bytes.Equal(mem.CommittedImage(), m.Image()) || m.DirtyCount() != 0 || mem.Epoch() != 1 {
			t.Fatalf("ps=%d: capture did not advance the committed image and clear the dirty set", ps)
		}
	}
}

func TestAccessors(t *testing.T) {
	m, _ := vm.NewMachine("a", 4, 32)
	mem, _ := NewMember(m)
	k, err := NewMKeeper(7, 0, 1, map[string][]byte{"a": mem.CommittedImage()})
	if err != nil {
		t.Fatal(err)
	}
	if k.Group() != 7 || k.ParityIndex() != 0 {
		t.Errorf("Group, ParityIndex = %d, %d", k.Group(), k.ParityIndex())
	}
	if k.Size() != 4*32 {
		t.Errorf("Size = %d", k.Size())
	}
	if k.Epoch("a") != 0 {
		t.Errorf("Epoch = %d", k.Epoch("a"))
	}
	if len(k.Parity()) != 4*32 {
		t.Error("Parity length wrong")
	}

	mk, err := NewMKeeper(3, 1, 2, map[string][]byte{"a": mem.CommittedImage(), "b": mem.CommittedImage()})
	if err != nil {
		t.Fatal(err)
	}
	if mk.Group() != 3 || mk.ParityIndex() != 1 {
		t.Error("MKeeper accessors wrong")
	}
	if mk.Epoch("b") != 0 {
		t.Error("MKeeper.Epoch wrong")
	}
}

func TestIntervalPolicies(t *testing.T) {
	yd := YoungDalyPolicy(10000, 5, 1000)
	if got := yd(0, 2); got < 5 || got > 1000 {
		t.Errorf("YoungDaly out of clamp: %v", got)
	}
	if got := yd(0, 0); got != 5 {
		t.Errorf("zero overhead should clamp to min, got %v", got)
	}
	if got := yd(0, 1e9); got != 1000 {
		t.Errorf("huge overhead should clamp to max, got %v", got)
	}
}

func TestSchemeAccessors(t *testing.T) {
	layout, plat, spec := schemeFixture(t)
	s, err := NewDVDCScheme(plat, layout, spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "DVDC" {
		t.Errorf("Name = %q", s.Name())
	}
	if got := s.RateWithDown(0); got != 1 {
		t.Errorf("RateWithDown(0) = %v", got)
	}
	if got := s.RateWithDown(1); got != 0.75 {
		t.Errorf("RateWithDown(1) = %v", got)
	}
	if got := s.RateWithDown(99); got != 0 {
		t.Errorf("RateWithDown(99) = %v", got)
	}
}

// schemeFixture builds the common scheme inputs for accessor tests.
func schemeFixture(t *testing.T) (*cluster.Layout, analytic.Platform, vm.Spec) {
	t.Helper()
	layout, err := cluster.Paper12VM()
	if err != nil {
		t.Fatal(err)
	}
	plat, err := analytic.DefaultPlatform(layout.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	spec := vm.Spec{Name: "x", ImageBytes: 1 << 20, Dirty: vm.LinearDirty{RatePerSec: 1, CapBytes: 1}}
	return layout, plat, spec
}
