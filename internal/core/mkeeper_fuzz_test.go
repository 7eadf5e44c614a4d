package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// FuzzMKeeperStage drives a keeper's staged round — Stage at any offset and
// length, Commit, Drop, interleaved as the script says — beside the
// independent twin over the same initial images: a keeper that folds with
// FoldInto into a contiguous pending buffer and lands the pages the round
// covered with DrainPendingRanges (a drop clears the buffer). Image sizes run
// below one page and off the page grain; groups have 1–4 members under RS
// m = 1 or 2, either parity index. After every step the committed parity and
// every epoch must agree, the staged page count must be the number of
// distinct pages the round's folds covered (zero after a commit or a drop),
// the drained buffer must be all zero, and the keeper must hold no more than
// its block plus the most pages any round touched.
func FuzzMKeeperStage(f *testing.F) {
	f.Add(int64(1), uint16(99), uint8(0), []byte{0, 1, 2, 6, 3, 7, 4, 5, 6})
	f.Add(int64(2), uint16(ParityPageSize-1), uint8(3), []byte{0, 0, 1, 1, 6, 2, 2, 7, 6})
	f.Add(int64(3), uint16(ParityPageSize), uint8(12), []byte{5, 4, 3, 6, 0, 7, 7, 1, 6, 6})
	f.Add(int64(4), uint16(2*ParityPageSize+1), uint8(15), []byte{0, 1, 2, 3, 4, 5, 6, 0, 1, 7, 2, 6})
	f.Add(int64(5), uint16(3*ParityPageSize+57), uint8(7), []byte{1, 1, 1, 1, 6, 2, 2, 2, 6, 3, 7, 6})
	f.Fuzz(func(t *testing.T, seed int64, sizeSel uint16, shape uint8, script []byte) {
		size := 1 + int(sizeSel)%(3*ParityPageSize+97)
		k := 1 + int(shape)%4
		m := 1 + int(shape/4)%2
		pidx := int(shape/8) % m
		if len(script) > 64 {
			script = script[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		initial := map[string][]byte{}
		names := make([]string, k)
		for j := range names {
			names[j] = fmt.Sprintf("vm-%d", j)
			img := make([]byte, size)
			rng.Read(img)
			initial[names[j]] = img
		}
		newKeeper := func() *MKeeper {
			kp, err := NewMKeeper(0, pidx, m, initial)
			if err != nil {
				t.Fatal(err)
			}
			return kp
		}
		staged, twin := newKeeper(), newKeeper()
		pending := make([]byte, size)
		folded := map[string]bool{} // members that folded this round
		touched := map[int]bool{}   // pages the round's folds covered
		maxTouched := 0
		check := func(step string) {
			t.Helper()
			if !bytes.Equal(staged.Parity(), twin.Parity()) {
				t.Fatalf("%s: staged keeper's parity diverges from FoldInto + DrainPendingRanges", step)
			}
			for _, id := range names {
				if e := staged.Epoch(id); e != twin.Epoch(id) {
					t.Fatalf("%s: %s at epoch %d, the twin at %d", step, id, e, twin.Epoch(id))
				}
			}
			if got := staged.StagedPages(); got != len(touched) {
				t.Fatalf("%s: %d pages staged, the round's folds covered %d", step, got, len(touched))
			}
			maxTouched = max(maxTouched, len(touched))
			if got, bound := staged.Footprint(), size+maxTouched*ParityPageSize; got > bound {
				t.Fatalf("%s: keeper holds %d bytes, over its block plus %d pages (%d)", step, got, maxTouched, bound)
			}
		}
		for n, op := range script {
			switch op % 8 {
			case 6: // commit every member that folded this round
				epochs := map[string]uint64{}
				for id := range folded {
					epochs[id] = staged.Epoch(id) + 1
				}
				var ranges [][2]int
				for p := range touched {
					ranges = append(ranges, [2]int{p * ParityPageSize, min((p+1)*ParityPageSize, size)})
				}
				if err := staged.Commit(epochs); err != nil {
					t.Fatal(err)
				}
				if err := twin.DrainPendingRanges(pending, epochs, ranges); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pending, make([]byte, size)) {
					t.Fatalf("step %d (commit): the drained buffer is not all zero", n)
				}
				clear(folded)
				clear(touched)
				check(fmt.Sprintf("step %d (commit)", n))
			case 7: // drop the round
				staged.Drop()
				clear(pending)
				clear(folded)
				clear(touched)
				check(fmt.Sprintf("step %d (drop)", n))
			default: // fold: any member, any offset, up to two pages and a bit
				id := names[rng.Intn(k)]
				off := rng.Intn(size + 1)
				data := make([]byte, rng.Intn(min(size-off, 2*ParityPageSize+9)+1))
				rng.Read(data)
				if err := staged.Stage(id, off, data); err != nil {
					t.Fatal(err)
				}
				if err := twin.FoldInto(pending, id, off, data); err != nil {
					t.Fatal(err)
				}
				folded[id] = true
				if len(data) > 0 {
					for p := off / ParityPageSize; p <= (off+len(data)-1)/ParityPageSize; p++ {
						touched[p] = true
					}
				}
				check(fmt.Sprintf("step %d (fold %s [%d,+%d))", n, id, off, len(data)))
			}
		}
	})
}

// TestStageRejectsBadFoldsAndCommits: a fold from an unknown member or outside
// the block is refused, a commit with a bad epoch leaves the staged round in
// place to be committed properly, and the oracle path refuses a keeper that
// holds staged pages.
func TestStageRejectsBadFoldsAndCommits(t *testing.T) {
	initial := map[string][]byte{"a": bytes.Repeat([]byte{1}, 5000), "b": bytes.Repeat([]byte{2}, 5000)}
	k, err := NewMKeeper(0, 0, 1, initial)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		id  string
		off int
		n   int
	}{{"ghost", 0, 1}, {"a", -1, 1}, {"a", 4999, 2}, {"a", 5001, 0}} {
		if err := k.Stage(bad.id, bad.off, make([]byte, bad.n)); err == nil {
			t.Fatalf("fold %+v accepted", bad)
		}
	}
	before := k.Parity()
	if err := k.Stage("a", 4090, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if k.StagedPages() != 2 {
		t.Fatalf("a fold across a page edge staged %d pages", k.StagedPages())
	}
	if err := k.Commit(map[string]uint64{"a": 2}); err == nil {
		t.Fatal("epoch skip committed")
	}
	if err := k.DrainPendingRanges(make([]byte, 5000), map[string]uint64{"a": 1}, [][2]int{{0, 5000}}); err == nil {
		t.Fatal("DrainPendingRanges accepted a keeper with staged pages")
	}
	if !bytes.Equal(k.Parity(), before) || k.Epoch("a") != 0 || k.StagedPages() != 2 {
		t.Fatal("a refused commit changed the keeper")
	}
	if err := k.Commit(map[string]uint64{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if got := k.Parity(); got[4089] != 3 || got[4090] != 3^0xFF || got[4097] != 3^0xFF || got[4098] != 3 {
		t.Fatal("the committed fold landed in the wrong bytes")
	}
}
