package runtime

import (
	"fmt"

	"dvdc/internal/bufpool"
	"dvdc/internal/core"
	"dvdc/internal/obs"
	"dvdc/internal/wire"
)

// chunkPipelineWidth bounds the in-flight chunk batches per (stream, peer).
// The keeper folds a batch before it replies, so this sender-side pipeline is
// what overlaps network transfer with the keeper's fold; it is small enough
// that one stream cannot monopolize a connection pool.
const chunkPipelineWidth = 4

// chunkBatchBudget floors the wire bytes packed into one MsgDeltaChunk
// message. The chunk size bounds fold granularity and per-chunk buffer
// memory; the batch budget bounds round trips: chunks follow dirty-page runs,
// so a scattered delta yields many frames far smaller than chunkSize, and one
// RPC per frame would make framing and syscalls dominate the round. Every
// chunk in a batch keeps its own offset and CRC and is folded individually;
// a chunk size above the floor gets one chunk per batch.
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

// planChunks lays a staged capture out as image-coordinate chunk frames:
// contiguous runs of its pages (d.Pages is in page order; only the indexes
// are read) are merged and each run cut into pieces of at most chunkSize
// bytes. Offset/Total address the member's image rather than a packed stream,
// so a keeper stages each chunk into its next-epoch parity pages the moment it
// arrives — no reassembly, no delta-sized buffer on either side. The chunks
// carry ranges only (no Data); raw is the bytes they cover. An empty capture
// yields one zero-length chunk so the epoch still reaches the keeper.
func planChunks(d *core.Delta, pageSize, imageBytes, chunkSize int) (chunks []wire.Chunk, raw int64) {
	pages := d.Pages
	// A pathological chunk size could exceed the wire's stream bound;
	// doubling until it fits terminates quickly and only ever runs under
	// degenerate configurations.
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
	return chunks, int64(len(pages)) * int64(pageSize)
}

// batchLen sizes the buffer of the batch that opens with chunks[0]: the
// frames the budget admits (one over it — planChunks widened a degenerate
// chunk size — gets a batch of its own), not the budget itself, so a full
// batch of default-size chunks and a sparse round's run of single-page frames
// both come from the 256 KiB pool class the receiver decodes them into.
func batchLen(chunks []wire.Chunk, budget int) int {
	n := 0
	for i := range chunks {
		need := wire.ChunkHeaderLen + int(chunks[i].RawLen)
		if n > 0 && n+need > budget {
			break
		}
		n += need
	}
	return n
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
