package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dvdc/internal/vm"
)

// refMember is the member as it was before pre-images, kept as the
// reference: a machine beside a full contiguous copy of the committed image,
// which Advance updates page by page and a rollback reloads whole.
type refMember struct {
	m         *vm.Machine
	committed []byte
	epoch     uint64
	staged    []int // the open capture's pages, nil when none is open
}

func (r *refMember) stage(skip bool) (pages []int, unchanged int) {
	ps := r.m.PageSize()
	pages = []int{}
	for _, i := range r.m.DirtyPages() {
		if skip && bytes.Equal(r.m.Page(i), r.committed[i*ps:(i+1)*ps]) {
			unchanged++
			continue
		}
		pages = append(pages, i)
	}
	r.m.BeginEpoch()
	r.staged = pages
	return pages, unchanged
}

func (r *refMember) deltaInto(dst []byte, off int) {
	live := r.m.Image()
	for j := range dst {
		dst[j] = live[off+j] ^ r.committed[off+j]
	}
}

func (r *refMember) advance() bool {
	if r.m.DirtyCount() != 0 {
		return false
	}
	ps := r.m.PageSize()
	for _, i := range r.staged {
		copy(r.committed[i*ps:(i+1)*ps], r.m.Page(i))
	}
	r.epoch++
	r.staged = nil
	return true
}

func (r *refMember) unstage() {
	for _, i := range r.staged {
		r.m.MarkDirty(i)
	}
	r.staged = nil
}

func (r *refMember) rollback() {
	if err := r.m.LoadImage(r.committed); err != nil {
		panic(err)
	}
	r.staged = nil
}

// FuzzMemberPreimages runs a member beside refMember over one script of guest
// writes (TouchPage, WritePage of a prefix, MutatePage flipping one byte, and
// store-backs), Stage with the skip on and off (refused while a capture is
// staged), DeltaInto over ranges that start and end anywhere (the checked
// render serving only the staged capture), Advance (refused while the guest
// has written since Stage, a no-op with nothing staged), Unstage, Rollback
// (also between Stage and Advance) and a respawn through NewMemberAt.
// Page sizes are 1, 7, 4096 and 4097. After every step both must agree on the
// live image, the committed image (CommittedImage, and CommittedInto over a
// range that straddles pages), the dirty set and the epoch; a page must have
// a pre-image exactly when it is dirty or staged; and the member must hold no
// pre-image and free pages beyond the most pages that had a pre-image at
// once.
func FuzzMemberPreimages(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 0, 1, 4, 5, 7, 8, 0, 8})
	f.Add(int64(2), uint8(1), []byte{1, 2, 3, 4, 5, 6, 1, 2, 4, 7, 0, 4, 8, 9, 0, 4, 6})
	f.Add(int64(3), uint8(2), []byte{0, 0, 3, 3, 4, 5, 5, 6, 2, 4, 0, 8, 1, 9, 4, 6})
	f.Add(int64(4), uint8(7), []byte{2, 2, 1, 0, 4, 1, 6, 7, 4, 6, 3, 9, 0, 8, 4, 6})
	f.Add(int64(5), uint8(13), []byte{3, 1, 4, 5, 7, 0, 0, 4, 8, 2, 4, 6, 1, 1, 9, 5})
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, script []byte) {
		ps := []int{1, 7, 4096, 4097}[shape%4]
		pages := 2 + int(shape/4)%5
		size := pages * ps
		if len(script) > 96 {
			script = script[:96]
		}
		rng := rand.New(rand.NewSource(seed))
		img := make([]byte, size)
		rng.Read(img)
		mem, err := NewMemberAt("m", ps, bytes.Clone(img), 3)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := vm.NewMachineFrom("m", ps, bytes.Clone(img))
		if err != nil {
			t.Fatal(err)
		}
		ref := &refMember{m: rm, committed: img, epoch: 3}
		m := mem.Machine()
		var staged *Delta
		var stamp uint64
		peak := 0
		check := func(step string) {
			t.Helper()
			if !bytes.Equal(m.Image(), rm.Image()) {
				t.Fatalf("%s: live images diverge", step)
			}
			if !bytes.Equal(mem.CommittedImage(), ref.committed) {
				t.Fatalf("%s: committed image diverges from the full copy", step)
			}
			off := rng.Intn(size + 1)
			got := make([]byte, rng.Intn(size-off+1))
			mem.CommittedInto(got, off)
			if !bytes.Equal(got, ref.committed[off:off+len(got)]) {
				t.Fatalf("%s: CommittedInto [%d,+%d) diverges", step, off, len(got))
			}
			if !slices.Equal(m.DirtyPages(), rm.DirtyPages()) {
				t.Fatalf("%s: dirty pages %v, reference %v", step, m.DirtyPages(), rm.DirtyPages())
			}
			if mem.Epoch() != ref.epoch || mem.Staged() != staged {
				t.Fatalf("%s: epoch %d, reference %d; staged %p, want %p", step, mem.Epoch(), ref.epoch, mem.Staged(), staged)
			}
			want := 0
			for i := 0; i < pages; i++ {
				written := rm.IsDirty(i) || slices.Contains(ref.staged, i)
				if (mem.pre[i] != nil) != written {
					t.Fatalf("%s: page %d has a pre-image: %v, dirty or staged: %v", step, i, mem.pre[i] != nil, written)
				}
				if written {
					want++
				}
			}
			peak = max(peak, want)
			if mem.held != want || mem.held+len(mem.free) != peak {
				t.Fatalf("%s: %d pre-images + %d free pages, want %d + %d", step, mem.held, len(mem.free), want, peak-want)
			}
			if got, bound := mem.Footprint(), size+peak*ps; got != bound {
				t.Fatalf("%s: footprint %d, want the image plus %d pages (%d)", step, got, peak, bound)
			}
		}
		check("start")
		for n, op := range script {
			page := rng.Intn(pages)
			step := fmt.Sprintf("step %d (op %d, page %d)", n, op%10, page)
			switch op % 10 {
			case 0:
				stamp++
				m.TouchPage(page, stamp)
				rm.TouchPage(page, stamp)
			case 1: // a prefix of the page
				data := make([]byte, 1+rng.Intn(ps))
				rng.Read(data)
				if err := m.WritePage(page, data); err != nil {
					t.Fatal(err)
				}
				if err := rm.WritePage(page, data); err != nil {
					t.Fatal(err)
				}
			case 2: // one byte anywhere in the page
				at, flip := rng.Intn(ps), byte(1+rng.Intn(255))
				m.MutatePage(page, func(p []byte) { p[at] ^= flip })
				rm.MutatePage(page, func(p []byte) { p[at] ^= flip })
			case 3: // a store-back: dirty, unchanged
				m.MutatePage(page, func([]byte) {})
				rm.MutatePage(page, func([]byte) {})
			case 4:
				if staged != nil { // a second capture is refused, and changes nothing
					if _, _, err := mem.Stage(false); err == nil {
						t.Fatalf("%s: a second Stage was accepted", step)
					}
					break
				}
				skip := rng.Intn(2) == 0
				var unchanged int
				staged, unchanged, _ = mem.Stage(skip)
				want, wantUnchanged := ref.stage(skip)
				got := stagedPages(staged)
				if !slices.Equal(got, want) || unchanged != wantUnchanged || staged.Epoch != ref.epoch+1 {
					t.Fatalf("%s: staged %v (%d unchanged) at epoch %d, reference %v (%d) at %d",
						step, got, unchanged, staged.Epoch, want, wantUnchanged, ref.epoch+1)
				}
			case 5: // a delta range that may straddle pages
				off := rng.Intn(size + 1)
				n := rng.Intn(min(size-off, 2*ps+3) + 1)
				got, want := bytes.Repeat([]byte{0xFF}, n), make([]byte, n)
				mem.deltaInto(got, off)
				ref.deltaInto(want, off)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: DeltaInto [%d,+%d) diverges", step, off, n)
				}
				// The checked render serves the staged capture and nothing else.
				if err := mem.DeltaInto(staged, got[:0], off); (err == nil) != (staged != nil) {
					t.Fatalf("%s: DeltaInto of capture %v: %v", step, staged != nil, err)
				}
			case 6:
				if staged == nil {
					if err := mem.Advance(ref.epoch + 1); err != nil {
						t.Fatalf("%s: advance with nothing staged: %v", step, err)
					}
					break
				}
				err := mem.Advance(staged.Epoch)
				if ok := ref.advance(); ok != (err == nil) {
					t.Fatalf("%s: advance: %v, reference ok=%v", step, err, ok)
				}
				if err == nil {
					staged = nil
				}
			case 7:
				mem.Unstage()
				ref.unstage()
				staged = nil
			case 8:
				mem.Rollback()
				ref.rollback()
				staged = nil
			case 9: // a respawn at a new image and epoch: a new member, no pages held
				fresh := make([]byte, size)
				rng.Read(fresh)
				if mem, err = NewMemberAt("m", ps, bytes.Clone(fresh), ref.epoch+5); err != nil {
					t.Fatal(err)
				}
				m = mem.Machine()
				if err := rm.LoadImage(fresh); err != nil {
					t.Fatal(err)
				}
				ref.committed, ref.epoch, ref.staged, staged, peak = bytes.Clone(fresh), ref.epoch+5, nil, nil, 0
			}
			check(step)
		}
	})
}
