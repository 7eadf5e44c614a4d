package runtime

import (
	"fmt"

	"dvdc/internal/bufpool"
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
// (a configure message): the encoding is 0 = default, > 0 = bytes.
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

// mountBufpoolStats exposes the process-wide buffer pool counters on a
// registry. Counters are global to the pool, so re-binding from every node
// sharing a registry is idempotent (CounterFunc replaces the reader).
func mountBufpoolStats(reg *obs.Registry) {
	reg.CounterFunc("dvdc_bufpool_gets_total", func() float64 { return float64(bufpool.Snapshot().Gets) })
	reg.CounterFunc("dvdc_bufpool_misses_total", func() float64 { return float64(bufpool.Snapshot().Misses) })
	reg.CounterFunc("dvdc_bufpool_puts_total", func() float64 { return float64(bufpool.Snapshot().Puts) })
	reg.CounterFunc("dvdc_bufpool_oversize_total", func() float64 { return float64(bufpool.Snapshot().Oversize) })
}
