package core

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"dvdc/internal/checkpoint"
)

// TestFoldIntoCommitPendingMatchesApplyDelta pins the oracle's chunked fold
// path to the staged round: folding each delta's pages chunk-by-chunk
// (shuffled, at byte offsets) into a zeroed pending buffer and draining it
// with DrainPendingRanges must leave the keeper in exactly the state whole
// pages staged with Stage and landed with Commit produce.
func TestFoldIntoCommitPendingMatchesApplyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const pageSize, pages = 32, 16
	for _, tolerance := range []int{1, 2} {
		initial := map[string][]byte{}
		for _, id := range []string{"vm-a", "vm-b", "vm-c"} {
			img := make([]byte, pageSize*pages)
			rng.Read(img)
			initial[id] = img
		}
		for pi := 0; pi < tolerance; pi++ {
			mono, err := NewMKeeper(1, pi, tolerance, initial)
			if err != nil {
				t.Fatal(err)
			}
			chunked, err := NewMKeeper(1, pi, tolerance, initial)
			if err != nil {
				t.Fatal(err)
			}

			for epoch := uint64(1); epoch <= 3; epoch++ {
				pending := make([]byte, chunked.Size())
				epochs := map[string]uint64{}
				for id := range initial {
					// Random dirty pages for this member.
					var recs []checkpoint.PageRecord
					for p := 0; p < pages; p++ {
						if rng.Intn(3) == 0 {
							data := make([]byte, pageSize)
							rng.Read(data)
							recs = append(recs, checkpoint.PageRecord{Index: p, Data: data})
						}
					}
					for _, p := range recs {
						if err := mono.Stage(id, p.Index*pageSize, p.Data); err != nil {
							t.Fatal(err)
						}
					}
					// Chunked: split every page into odd-sized pieces folded
					// at byte offsets, in shuffled order.
					type piece struct {
						off  int
						data []byte
					}
					var pieces []piece
					for _, p := range recs {
						base := p.Index * pageSize
						for at := 0; at < len(p.Data); {
							n := min(1+rng.Intn(13), len(p.Data)-at)
							pieces = append(pieces, piece{base + at, p.Data[at : at+n]})
							at += n
						}
					}
					rng.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })
					for _, pc := range pieces {
						if err := chunked.FoldInto(pending, id, pc.off, pc.data); err != nil {
							t.Fatal(err)
						}
					}
					epochs[id] = epoch
				}
				if err := mono.Commit(epochs); err != nil {
					t.Fatal(err)
				}
				if err := chunked.DrainPendingRanges(pending, epochs, [][2]int{{0, len(pending)}}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mono.Parity(), chunked.Parity()) {
					t.Fatalf("tolerance=%d row=%d epoch=%d: chunked parity diverges", tolerance, pi, epoch)
				}
				for id := range initial {
					if mono.Epoch(id) != chunked.Epoch(id) {
						t.Fatalf("epoch bookkeeping diverges for %s", id)
					}
				}
			}
		}
	}
}

func TestCommitPendingRejectsBadEpochAtomically(t *testing.T) {
	initial := map[string][]byte{"a": make([]byte, 64), "b": make([]byte, 64)}
	k, err := NewMKeeper(0, 0, 1, initial)
	if err != nil {
		t.Fatal(err)
	}
	before := k.Parity()
	pending := bytes.Repeat([]byte{0xFF}, 64)
	all := [][2]int{{0, 64}}
	// "a" is valid (epoch 1), "b" skips ahead — the whole commit must fail
	// without touching parity, epochs or the pending buffer.
	err = k.DrainPendingRanges(pending, map[string]uint64{"a": 1, "b": 2}, all)
	if err == nil {
		t.Fatal("epoch skip accepted")
	}
	if !bytes.Equal(k.Parity(), before) {
		t.Fatal("failed commit mutated parity")
	}
	if k.Epoch("a") != 0 {
		t.Fatal("failed commit advanced an epoch")
	}
	if !bytes.Equal(pending, bytes.Repeat([]byte{0xFF}, 64)) {
		t.Fatal("failed commit drained the pending buffer")
	}
	if err := k.DrainPendingRanges(pending, map[string]uint64{"a": 1, "b": 1}, all); err != nil {
		t.Fatal(err)
	}
}

// TestCommitPendingRangesMatchesFullCommit pins the range-restricted drain
// to the full-buffer one: when the ranges cover every byte a fold touched
// (and the rest of the buffer is zero), both commits must land the identical
// parity block, and both must leave their buffers all zero.
func TestCommitPendingRangesMatchesFullCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const pageSize, pages = 32, 16
	initial := map[string][]byte{}
	for _, id := range []string{"vm-a", "vm-b"} {
		img := make([]byte, pageSize*pages)
		rng.Read(img)
		initial[id] = img
	}
	full, err := NewMKeeper(2, 0, 2, initial)
	if err != nil {
		t.Fatal(err)
	}
	ranged, err := NewMKeeper(2, 0, 2, initial)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := uint64(1); epoch <= 4; epoch++ {
		pending := make([]byte, full.Size())
		var ranges [][2]int
		epochs := map[string]uint64{}
		for id := range initial {
			for p := 0; p < pages; p++ {
				if rng.Intn(4) != 0 {
					continue
				}
				data := make([]byte, pageSize)
				rng.Read(data)
				off := p * pageSize
				if err := full.FoldInto(pending, id, off, data); err != nil {
					t.Fatal(err)
				}
				ranges = append(ranges, [2]int{off, off + pageSize})
			}
			epochs[id] = epoch
		}
		// Deduplicate overlapping ranges (two members dirtying the same page)
		// the same way the runtime does: sort and merge into disjoint runs.
		sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
		merged := ranges[:0]
		for _, r := range ranges {
			if n := len(merged); n > 0 && r[0] <= merged[n-1][1] {
				merged[n-1][1] = max(merged[n-1][1], r[1])
			} else {
				merged = append(merged, r)
			}
		}
		fullBuf := append([]byte(nil), pending...)
		if err := full.DrainPendingRanges(fullBuf, epochs, [][2]int{{0, len(fullBuf)}}); err != nil {
			t.Fatal(err)
		}
		if err := ranged.DrainPendingRanges(pending, epochs, merged); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full.Parity(), ranged.Parity()) {
			t.Fatalf("epoch %d: ranged commit diverges from full commit", epoch)
		}
		if zero := make([]byte, len(pending)); !bytes.Equal(pending, zero) || !bytes.Equal(fullBuf, zero) {
			t.Fatalf("epoch %d: a drained buffer is not all zero", epoch)
		}
	}
}

func TestCommitPendingRangesRejectsBadRangeAtomically(t *testing.T) {
	initial := map[string][]byte{"a": make([]byte, 64)}
	k, err := NewMKeeper(0, 0, 1, initial)
	if err != nil {
		t.Fatal(err)
	}
	before := k.Parity()
	pending := bytes.Repeat([]byte{0xFF}, 64)
	for _, bad := range [][2]int{{-1, 8}, {8, 4}, {32, 65}} {
		err := k.DrainPendingRanges(pending, map[string]uint64{"a": 1}, [][2]int{{0, 8}, bad})
		if err == nil {
			t.Fatalf("range %v accepted", bad)
		}
		if !bytes.Equal(k.Parity(), before) {
			t.Fatalf("failed commit with range %v mutated parity", bad)
		}
		if k.Epoch("a") != 0 {
			t.Fatalf("failed commit with range %v advanced an epoch", bad)
		}
		if !bytes.Equal(pending, bytes.Repeat([]byte{0xFF}, 64)) {
			t.Fatalf("failed commit with range %v drained the pending buffer", bad)
		}
	}
}

func TestFoldIntoRejectsBadRanges(t *testing.T) {
	initial := map[string][]byte{"a": make([]byte, 64)}
	k, err := NewMKeeper(0, 0, 1, initial)
	if err != nil {
		t.Fatal(err)
	}
	pending := make([]byte, 64)
	if err := k.FoldInto(pending, "ghost", 0, []byte{1}); err == nil {
		t.Fatal("unknown member accepted")
	}
	if err := k.FoldInto(pending[:32], "a", 0, []byte{1}); err == nil {
		t.Fatal("short pending buffer accepted")
	}
	if err := k.FoldInto(pending, "a", 60, []byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("out-of-range fold accepted")
	}
	if err := k.FoldInto(pending, "a", -1, []byte{1}); err == nil {
		t.Fatal("negative offset accepted")
	}
}
