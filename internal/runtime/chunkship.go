package runtime

import (
	"fmt"
	"sort"

	"dvdc/internal/bufpool"
	"dvdc/internal/checkpoint"
	"dvdc/internal/core"
	"dvdc/internal/obs"
	"dvdc/internal/wire"
)

// chunkPipelineWidth bounds the in-flight chunk frames per (stream, peer):
// enough to overlap network transfer with the receiver's per-chunk parity
// fold, small enough that one stream cannot monopolize a connection pool.
const chunkPipelineWidth = 4

// chunkBatchBudget floors the wire bytes packed into one MsgDeltaChunk
// message. The chunk size bounds fold granularity and per-chunk buffer
// memory; the batch budget bounds round trips. Tying them together made a
// small chunk size pay one RPC per chunkSize bytes — with 64 KiB chunks a
// 4.7 MB delta cost ~72 round trips a round. Batches of several chunks keep
// the fold granularity while amortizing framing and scheduler ping-pong;
// chunk sizes above the floor keep one chunk per batch as before.
const chunkBatchBudget = 256 << 10

// checkChunkSize rejects a chunk-size setting arriving from outside the node
// (a configure or retune message): the encoding is 0 = default, > 0 = bytes.
func checkChunkSize(v int) error {
	if v < 0 {
		return fmt.Errorf("runtime: chunk size %d: want 0 (default) or a positive byte count", v)
	}
	return nil
}

// resolveChunkSize maps the configuration encoding to the effective chunk
// payload size: 0 selects wire.DefaultChunkSize, positive values pass
// through.
func resolveChunkSize(v int) int {
	if v <= 0 {
		return wire.DefaultChunkSize
	}
	return v
}

// resolvePipelineWidth maps the configuration encoding to an effective
// in-flight chunk-batch width: nonpositive selects the default.
func resolvePipelineWidth(v int) int {
	if v <= 0 {
		return chunkPipelineWidth
	}
	return v
}

// planChunks lays a captured delta out as image-coordinate chunk frames:
// dirty pages are sorted, contiguous page runs merged, and each run cut into
// pieces of at most chunkSize bytes. Offset/Total address the member's image
// rather than a packed stream, so a keeper folds each chunk into its pending
// parity buffer the moment it arrives — no reassembly, no delta-sized buffer
// on either side. The returned chunks carry ranges only (no Data); pages is
// the sorted page list the ranges were planned over. An empty delta yields
// one zero-length chunk so the epoch still reaches the keeper.
func planChunks(d *core.Delta, pageSize, imageBytes, chunkSize int) ([]wire.Chunk, []checkpoint.PageRecord) {
	pages := append([]checkpoint.PageRecord(nil), d.Pages...)
	sort.Slice(pages, func(i, j int) bool { return pages[i].Index < pages[j].Index })

	// A pathological chunk size could exceed the wire's stream bound;
	// doubling until it fits terminates quickly and only ever runs under
	// degenerate configurations.
	var chunks []wire.Chunk
	for {
		chunks = chunks[:0]
		for i := 0; i < len(pages); {
			j := i
			for j+1 < len(pages) && pages[j+1].Index == pages[j].Index+1 {
				j++
			}
			runOff := pages[i].Index * pageSize
			runLen := (j - i + 1) * pageSize
			for at := 0; at < runLen; at += chunkSize {
				n := min(chunkSize, runLen-at)
				chunks = append(chunks, wire.Chunk{
					Offset: uint64(runOff + at),
					Total:  uint64(imageBytes),
					RawLen: uint32(n),
				})
			}
			i = j + 1
		}
		if len(chunks) <= wire.MaxChunkCount {
			break
		}
		chunkSize *= 2
	}
	if len(chunks) == 0 {
		chunks = append(chunks, wire.Chunk{Total: uint64(imageBytes), Count: 1})
	}
	count := uint32(len(chunks))
	for i := range chunks {
		chunks[i].Index = uint32(i)
		chunks[i].Count = count
	}
	return chunks, pages
}

// deltaChunkScatter renders a delta as chunk frames whose data stays in the
// captured page buffers: segs[i] is chunk i's data as a scatter list of page
// (sub)slices, for FrameWriter.AppendChunkScatter. Nothing is copied — the
// delta's pages are aliased, so they must outlive the encoded segments (the
// staged capture lives until commit, well past the prepare-phase ship).
func deltaChunkScatter(d *core.Delta, pageSize, imageBytes, chunkSize int) ([]wire.Chunk, [][][]byte) {
	chunks, pages := planChunks(d, pageSize, imageBytes, chunkSize)
	segs := make([][][]byte, len(chunks))
	for ci := range chunks {
		c := &chunks[ci]
		n := int(c.RawLen)
		off := int(c.Offset)
		for k := 0; k < n; {
			pi := (off + k) / pageSize
			ri := sort.Search(len(pages), func(x int) bool { return pages[x].Index >= pi })
			po := (off + k) % pageSize
			take := min(pageSize-po, n-k)
			segs[ci] = append(segs[ci], pages[ri].Data[po:po+take])
			k += take
		}
	}
	return chunks, segs
}

// mountBufpoolStats exposes the process-wide buffer pool counters on a
// registry. Counters are global to the pool, so re-binding from every node
// sharing a registry is idempotent (CounterFunc replaces the reader).
func mountBufpoolStats(reg *obs.Registry) {
	reg.CounterFunc("dvdc_bufpool_gets_total", func() float64 { return float64(bufpool.Snapshot().Gets) })
	reg.CounterFunc("dvdc_bufpool_misses_total", func() float64 { return float64(bufpool.Snapshot().Misses) })
	reg.CounterFunc("dvdc_bufpool_puts_total", func() float64 { return float64(bufpool.Snapshot().Puts) })
	reg.CounterFunc("dvdc_bufpool_oversize_total", func() float64 { return float64(bufpool.Snapshot().Oversize) })
}
