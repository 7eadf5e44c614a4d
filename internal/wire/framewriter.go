package wire

import "net"

// Scatter-gather chunk encoding: AppendChunk renders header and data into one
// contiguous buffer — a memcpy of every data byte just to frame it. The
// FrameWriter below instead emits each frame as two segments, a header slot
// carved from a small pooled arena and the caller's data slice aliased as-is,
// collected into a net.Buffers for Message.PayloadSegs. The bytes on the wire
// are identical to the contiguous encoding, so receivers decode through the
// unchanged DecodeChunkPrefix/Assembler path. The runtime no longer ships this
// way — it renders a delta straight into a contiguous batch and seals each
// frame in place (SealChunk) — so today the layer benchmark is the only caller.

// frameWriterArenaHeaders sizes a header arena: ~4 KiB holds 110 headers,
// which covers a whole default-size batch in one pooled buffer.
const frameWriterArenaHeaders = 110

// FrameWriter collects chunk frames as scatter-gather segments. Each
// AppendChunkScatter adds a header rendered into an internal arena plus the
// chunk's data pieces, aliased without copying. The accumulated Segments are
// wire-identical to AppendChunk run over the same chunks, so they decode
// through DecodeChunkPrefix unchanged.
//
// Data slices are aliased until the segments have been written, so the
// caller must keep them alive (and unmodified) until then. Release returns
// the header arenas; the zero FrameWriter is ready to use.
type FrameWriter struct {
	// Alloc provides header-arena buffers (nil = make). Arenas are returned
	// through Release's free func.
	Alloc func(int) []byte

	arenas [][]byte
	cur    []byte // active arena, len = bytes used
	segs   net.Buffers
	n      int
	frames int
}

// AppendChunkScatter adds one chunk frame whose data arrives as a scatter
// list instead of a contiguous slice: the concatenation of data plays the
// role of c.Data (which is ignored and may be nil). The header's length and
// CRC fields are computed across the pieces, and each piece becomes its own
// wire segment — so a chunk spanning several dirty pages ships straight from
// the page buffers with no coalescing copy. Pieces are aliased until the
// segments have been written.
func (fw *FrameWriter) AppendChunkScatter(c *Chunk, data [][]byte) {
	if len(fw.cur)+ChunkHeaderLen > cap(fw.cur) {
		alloc := fw.Alloc
		if alloc == nil {
			alloc = func(n int) []byte { return make([]byte, n) }
		}
		a := alloc(frameWriterArenaHeaders * ChunkHeaderLen)
		fw.arenas = append(fw.arenas, a)
		fw.cur = a[:0]
	}
	base := len(fw.cur)
	fw.cur = appendChunkHeader(fw.cur, c, data)
	fw.segs = append(fw.segs, fw.cur[base:len(fw.cur):len(fw.cur)])
	for _, d := range data {
		if len(d) > 0 {
			fw.segs = append(fw.segs, d)
			fw.n += len(d)
		}
	}
	fw.n += ChunkHeaderLen
	fw.frames++
}

// Len returns the total encoded bytes across all appended frames.
func (fw *FrameWriter) Len() int { return fw.n }

// Frames returns how many chunk frames have been appended.
func (fw *FrameWriter) Frames() int { return fw.frames }

// Segments returns the accumulated scatter list. The slices alias the
// writer's arenas and the callers' data buffers; they are valid until Reset
// or Release.
func (fw *FrameWriter) Segments() net.Buffers { return fw.segs }

// Bytes renders the contiguous encoding (a copy) — test and fallback use.
func (fw *FrameWriter) Bytes() []byte {
	out := make([]byte, 0, fw.n)
	for _, s := range fw.segs {
		out = append(out, s...)
	}
	return out
}

// Release returns every header arena through free (e.g. bufpool.Put) and
// clears the writer. Segments obtained earlier are invalid afterwards.
func (fw *FrameWriter) Release(free func([]byte)) {
	if free != nil {
		for _, a := range fw.arenas {
			free(a)
		}
	}
	fw.arenas = nil
	fw.cur = nil
	fw.segs = nil
	fw.n = 0
	fw.frames = 0
}
