package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"dvdc/internal/vm"
	"dvdc/internal/wire"
)

// stagedPages lists a capture's pages from its runs, in page order.
func stagedPages(d *Delta) []int {
	var out []int
	for _, r := range d.Runs {
		for i := r.First; i < r.First+r.Len; i++ {
			out = append(out, i)
		}
	}
	return out
}

// collectChunks walks a capture's chunk cursor to the end, for tests that
// want the whole plan at once.
func collectChunks(d *Delta, pageSize, imageBytes, chunkSize int) []wire.Chunk {
	var out []wire.Chunk
	chunks := d.Chunks(pageSize, imageBytes, chunkSize)
	for c, ok := chunks.Next(); ok; c, ok = chunks.Next() {
		out = append(out, c)
	}
	return out
}

// sameChunk reports whether two planned chunks (no Data) are the same frame.
func sameChunk(a, b wire.Chunk) bool {
	return a.Offset == b.Offset && a.Total == b.Total && a.Index == b.Index && a.Count == b.Count &&
		a.RawLen == b.RawLen && a.Data == nil && b.Data == nil
}

// refChunks is the cursor's rule written page by page, for FuzzChunkCursor:
// the captured pages join into spans across gaps of at most bridge clean
// pages, bridge the least of 0, 1, 2, 4, … that keeps the spans within
// wire.MaxChunkCount; each span is cut into pieces of chunkSize bytes, the
// size doubled until the pieces fit; no span at all is one zero-length chunk.
func refChunks(captured []bool, ps, chunkSize int) (chunks []wire.Chunk, bridge int) {
	type span struct{ first, end int } // pages
	spansWith := func(bridge int) []span {
		var out []span
		for i, in := range captured {
			switch {
			case !in:
			case len(out) > 0 && i-out[len(out)-1].end <= bridge:
				out[len(out)-1].end = i + 1
			default:
				out = append(out, span{i, i + 1})
			}
		}
		return out
	}
	spans := spansWith(0)
	for len(spans) > wire.MaxChunkCount {
		bridge = max(1, 2*bridge)
		spans = spansWith(bridge)
	}
	total := uint64(len(captured) * ps)
	for {
		chunks = chunks[:0]
		for _, s := range spans {
			for off := s.first * ps; off < s.end*ps; off += chunkSize {
				chunks = append(chunks, wire.Chunk{Offset: uint64(off), Total: total, RawLen: uint32(min(chunkSize, s.end*ps-off))})
			}
		}
		if len(chunks) <= wire.MaxChunkCount {
			break
		}
		chunkSize *= 2
	}
	if len(chunks) == 0 {
		chunks = append(chunks, wire.Chunk{Total: total})
	}
	for i := range chunks {
		chunks[i].Index, chunks[i].Count = uint32(i), uint32(len(chunks))
	}
	return chunks, bridge
}

// FuzzChunkCursor holds a member's staged capture and its chunk cursor to
// independent page-by-page rules: the runs are the maximal runs of the pages
// the capture must hold (every dirty page, or with the unchanged-page skip
// those that differ from the committed image), and the cursor yields exactly
// refChunks' chunks, in order, from the start and from a copy taken midway.
// The chunks tile the captured pages' bytes, plus clean pages only where gaps
// were bridged, which happens only past the run bound. Inputs range over page
// and chunk sizes down to one byte, the empty capture, and (over) captures of
// more runs, or of more single-byte pieces, than wire.MaxChunkCount.
func FuzzChunkCursor(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4), uint8(60), false, false)
	f.Add(int64(2), uint8(2), uint8(9), uint8(200), true, false)
	f.Add(int64(3), uint8(3), uint8(4), uint8(0), false, false) // empty capture
	f.Add(int64(4), uint8(0), uint8(1), uint8(128), true, false)
	f.Add(int64(5), uint8(0), uint8(4), uint8(1), false, true) // runs past the bound
	f.Add(int64(6), uint8(1), uint8(4), uint8(0), false, true)
	f.Add(int64(7), uint8(0), uint8(1), uint8(2), false, true) // pieces past the bound
	f.Add(int64(8), uint8(1), uint8(4), uint8(2), true, true)
	f.Fuzz(func(t *testing.T, seed int64, psSel, chunkQuarters, density uint8, skip, over bool) {
		rng := rand.New(rand.NewSource(seed))
		ps := []int{1, 3, 64, 4096}[psSel%4]
		pages := 1 + rng.Intn(300)
		if over {
			ps = 1 + int(psSel%2)
			pages = 4 * wire.MaxChunkCount
		}
		chunkSize := max(1, int(chunkQuarters)*ps/4)
		m, err := vm.NewMachine("c", pages, ps)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := NewMember(m)
		if err != nil {
			t.Fatal(err)
		}
		// A dirty page is written (changed) or stored back (unchanged).
		captured := make([]bool, pages)
		write := func(i int) {
			if rng.Intn(4) == 0 {
				m.MutatePage(i, func([]byte) {})
				captured[i] = !skip
				return
			}
			m.MutatePage(i, func(p []byte) { p[0] ^= 0xFF })
			captured[i] = true
		}
		switch {
		case over && density%3 == 2: // every page: a few long runs of tiny pieces
			for i := range captured {
				write(i)
			}
			chunkSize = 1
		case over: // runs of one or two pages, gaps of one or two
			for i := 0; i < pages; i += 3 - min(rng.Intn(2), int(density%3)) {
				write(i)
				if rng.Intn(8) == 0 && i+1 < pages {
					write(i + 1)
				}
			}
		default:
			for i := range captured {
				if rng.Intn(256) < int(density) {
					write(i)
				}
			}
		}
		var want []int
		for i, in := range captured {
			if in {
				want = append(want, i)
			}
		}
		d, _, err := mem.Stage(skip)
		if err != nil {
			t.Fatal(err)
		}
		if got := stagedPages(d); !slices.Equal(got, want) || d.PageCount() != len(want) {
			t.Fatalf("staged %d pages, want %d", d.PageCount(), len(want))
		}
		for i, r := range d.Runs {
			if r.Len < 1 || i > 0 && r.First <= d.Runs[i-1].First+d.Runs[i-1].Len {
				t.Fatalf("run %d %+v is empty or not maximal: %+v", i, r, d.Runs)
			}
		}

		ref, bridge := refChunks(captured, ps, chunkSize)
		cursor := d.Chunks(ps, pages*ps, chunkSize)
		if cursor.Count() != len(ref) {
			t.Fatalf("cursor counts %d chunks, reference %d", cursor.Count(), len(ref))
		}
		mid := rng.Intn(len(ref))
		var fork ChunkCursor
		for i := 0; ; i++ {
			if i == mid {
				fork = cursor
			}
			c, ok := cursor.Next()
			if !ok {
				if i != len(ref) {
					t.Fatalf("cursor stopped after %d chunks, reference has %d", i, len(ref))
				}
				break
			}
			if i >= len(ref) || !sameChunk(c, ref[i]) {
				t.Fatalf("chunk %d = %+v, reference %+v", i, c, ref[min(i, len(ref)-1)])
			}
		}
		for i := mid; i < len(ref); i++ {
			if c, ok := fork.Next(); !ok || !sameChunk(c, ref[i]) {
				t.Fatalf("a copy taken at chunk %d yields %+v, %v at %d, reference %+v", mid, c, ok, i, ref[i])
			}
		}
		if _, ok := fork.Next(); ok {
			t.Fatal("a copy of the cursor runs past the stream")
		}

		covered := make([]bool, pages*ps)
		for _, c := range ref {
			for b := int(c.Offset); b < int(c.Offset)+int(c.RawLen); b++ {
				if covered[b] {
					t.Fatalf("byte %d covered twice", b)
				}
				covered[b] = true
			}
		}
		for b, in := range covered {
			switch page := b / ps; {
			case captured[page] && !in:
				t.Fatalf("captured page %d: byte %d left out", page, b)
			case !captured[page] && in && bridge == 0:
				t.Fatalf("clean page %d covered with no gap bridged", page)
			}
		}
		if (len(d.Runs) > wire.MaxChunkCount) != (bridge > 0) {
			t.Fatalf("%d runs bridged across gaps of %d pages", len(d.Runs), bridge)
		}
		mem.Unstage()
	})
}

// TestChunkCursorBridgesPastRunBound: a capture of more runs than a stream
// may count chunks — 64-byte pages, every other one of 140,000 dirty, 70,000
// runs — yields a stream within wire.MaxChunkCount instead of widening its
// chunk size forever, and a round over it (foldStaged, then Commit and
// Advance) commits with parity intact: the bridged clean pages render zeros and fold as no-ops.
func TestChunkCursorBridgesPastRunBound(t *testing.T) {
	const pages, ps = 140_000, 64
	m, err := vm.NewMachine("a", pages, ps)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMember(m)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewMKeeper(0, 0, 1, map[string][]byte{"a": mem.CommittedImage()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i += 2 {
		m.TouchPage(i, uint64(i+1))
	}
	done := make(chan error, 1)
	go func() {
		d, _, err := mem.Stage(false)
		if err != nil {
			done <- err
			return
		}
		if len(d.Runs) != pages/2 || d.PageCount() != pages/2 {
			done <- fmt.Errorf("staged %d pages in %d runs, want %d in as many", d.PageCount(), len(d.Runs), pages/2)
			return
		}
		chunks := d.Chunks(ps, pages*ps, wire.DefaultChunkSize)
		if n := chunks.Count(); n > wire.MaxChunkCount {
			done <- fmt.Errorf("the cursor counts %d chunks, over the bound of %d", n, wire.MaxChunkCount)
			return
		}
		if err := foldStaged(mem, d, 1, 0, k); err != nil {
			done <- err
			return
		}
		if err := k.Commit(d.Epoch); err != nil {
			done <- err
			return
		}
		if err := mem.Advance(d.Epoch); err != nil {
			done <- err
			return
		}
		want, err := NewMKeeper(0, 0, 1, map[string][]byte{"a": m.Image()})
		if err == nil && !bytes.Equal(k.Parity(), want.Parity()) {
			err = fmt.Errorf("the committed parity is not the live image's")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("planning a capture of 70,000 runs did not return in 30 s")
	}
}

// TestStageAndWalkAllocateByRuns is the allocation guard of a member's round:
// staging a capture, walking and rendering every chunk and unstaging it
// allocate the capture record and its run list — 16 bytes a run — and
// nothing sized by the capture's pages.
func TestStageAndWalkAllocateByRuns(t *testing.T) {
	const pages, ps, runs, runLen = 4096, 64, 64, 47
	m, err := vm.NewMachine("a", pages, ps)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMember(m)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < runs; r++ {
		for i := r * pages / runs; i < r*pages/runs+runLen; i++ {
			m.TouchPage(i, uint64(i+1))
		}
	}
	buf := make([]byte, wire.DefaultChunkSize)
	round := func() {
		d, _, err := mem.Stage(false)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Runs) != runs || d.PageCount() != runs*runLen {
			t.Fatalf("staged %d pages in %d runs, want %d in %d", d.PageCount(), len(d.Runs), runs*runLen, runs)
		}
		chunks := d.Chunks(ps, pages*ps, wire.DefaultChunkSize)
		for c, ok := chunks.Next(); ok; c, ok = chunks.Next() {
			if err := mem.DeltaInto(d, buf[:c.RawLen], int(c.Offset)); err != nil {
				t.Fatal(err)
			}
		}
		mem.Unstage()
	}
	round() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*16*runs+1024); got > bound {
		t.Fatalf("a round of %d dirty pages in %d runs allocated %d bytes, bound %d", runs*runLen, runs, got, bound)
	}
}
