package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Chunk framing: the checkpoint data path ships deltas, images, and parity
// blocks as streams of fixed-size chunks, so network transfer and parity
// folding overlap and no image-sized buffer is ever allocated per message. A
// chunk is one contiguous byte range of the stream, self-describing enough to
// be folded or assembled on arrival in any order:
//
//	offset  u64  byte offset of the chunk's data in the stream
//	total   u64  total stream bytes
//	index   u32  chunk ordinal within the stream, < count
//	count   u32  chunks in the stream
//	flags   u8   always 0; a frame with any flag set is refused
//	rawlen  u32  data length
//	datalen u32  data length again (== rawlen)
//	crc     u32  IEEE CRC32 of the whole encoding with this field zeroed
//	data    ...
//
// Unlike the outer Message framing, chunks carry a checksum: a mangled
// interior byte of a message frame could decode into a silently wrong
// payload, but a chunk that is folded straight into parity on arrival must
// be verified before the fold — the CRC covers header and data, so any
// single-burst corruption (including a flipped offset or index) is detected
// and the receiver fails loudly instead of corrupting parity.

// ChunkHeaderLen is the fixed chunk header size preceding the data.
const ChunkHeaderLen = 8 + 8 + 4 + 4 + 1 + 4 + 4 + 4

// DefaultChunkSize is the data-path chunk payload size when the operator
// does not choose one. 64 KiB keeps per-chunk overhead under 0.1% while
// giving the keeper fold pipeline enough grain to overlap with transfer.
const DefaultChunkSize = 64 << 10

// MaxChunkCount bounds a stream's chunk count so a hostile header cannot
// make an assembler allocate unbounded bookkeeping.
const MaxChunkCount = 1 << 16

// zeroCRC stands in for a frame's crc field when the CRC is verified. It is a
// package variable because a local array passed to crc32.Update escapes to
// the heap, one allocation per decoded frame. Never written.
var zeroCRC [4]byte

// Chunk is one decoded chunk frame. Data aliases the decoder's input; copy
// it before the input buffer is reused.
type Chunk struct {
	Offset uint64
	Total  uint64
	Index  uint32
	Count  uint32
	RawLen uint32 // data length
	Data   []byte
}

// ChunkCount returns how many chunks of size chunkSize cover total bytes
// (at least 1, so even an empty stream announces itself).
func ChunkCount(total, chunkSize int) int {
	if total <= 0 {
		return 1
	}
	return (total + chunkSize - 1) / chunkSize
}

// ChunkOf slices chunk index out of a contiguous block: the byte range
// [index*chunkSize, min((index+1)*chunkSize, len(block))). Data aliases
// block.
func ChunkOf(block []byte, index, chunkSize int) (Chunk, error) {
	c, err := ChunkAt(len(block), index, chunkSize)
	if err != nil {
		return Chunk{}, err
	}
	c.Data = block[c.Offset : c.Offset+uint64(c.RawLen)]
	return c, nil
}

// ChunkAt describes chunk index of a total-byte stream cut into chunkSize
// pieces, as ChunkOf does, for a block that is not one slice: Data is nil and
// the caller renders the chunk's RawLen bytes from Offset itself.
func ChunkAt(total, index, chunkSize int) (Chunk, error) {
	count := ChunkCount(total, chunkSize)
	if index < 0 || index >= count {
		return Chunk{}, fmt.Errorf("%w: chunk index %d of %d", ErrFrame, index, count)
	}
	lo := index * chunkSize
	hi := min(lo+chunkSize, total)
	if lo > hi {
		lo = hi
	}
	return Chunk{
		Offset: uint64(lo),
		Total:  uint64(total),
		Index:  uint32(index),
		Count:  uint32(count),
		RawLen: uint32(hi - lo),
	}, nil
}

// appendChunkHeader renders the chunk header for a chunk whose carried bytes
// are the concatenation of data (c.Data is not consulted): the length field
// and the CRC — over the header with its crc field zeroed, then the data —
// are computed across the pieces. It is the only place the header is laid
// out; every encoder goes through it.
func appendChunkHeader(dst []byte, c *Chunk, data [][]byte) []byte {
	var dataLen int
	for _, d := range data {
		dataLen += len(d)
	}
	base := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, c.Offset)
	dst = binary.LittleEndian.AppendUint64(dst, c.Total)
	dst = binary.LittleEndian.AppendUint32(dst, c.Index)
	dst = binary.LittleEndian.AppendUint32(dst, c.Count)
	dst = append(dst, 0) // flags
	dst = binary.LittleEndian.AppendUint32(dst, c.RawLen)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dataLen))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // crc placeholder
	crc := crc32.ChecksumIEEE(dst[base:])
	for _, d := range data {
		crc = crc32.Update(crc, crc32.IEEETable, d)
	}
	binary.LittleEndian.PutUint32(dst[base+ChunkHeaderLen-4:], crc)
	return dst
}

// AppendChunk appends the chunk's canonical encoding to dst (which may come
// from a buffer pool) and returns the extended slice.
func AppendChunk(dst []byte, c *Chunk) []byte {
	return append(appendChunkHeader(dst, c, [][]byte{c.Data}), c.Data...)
}

// SealChunk finishes a frame rendered in place: frame is a ChunkHeaderLen
// header slot followed by the chunk's carried bytes, already written there
// (c.Data is not consulted). The header — lengths and the CRC over both — is
// laid out in the slot, and frame then equals AppendChunk's encoding of the
// same chunk. The ship path renders a delta straight into its batch buffer
// this way and checksums the bytes while they are still in cache.
func SealChunk(frame []byte, c *Chunk) {
	appendChunkHeader(frame[:0], c, [][]byte{frame[ChunkHeaderLen:]})
}

// EncodeChunk renders the chunk's canonical encoding.
func EncodeChunk(c *Chunk) []byte {
	return AppendChunk(make([]byte, 0, ChunkHeaderLen+len(c.Data)), c)
}

// DecodeChunkPrefix parses and verifies the chunk frame at the start of b,
// returning the decoded chunk and the encoded length consumed. Frames are
// self-delimiting (the header carries the data length), so several frames
// packed back-to-back in one message payload — the shipping path batches
// small run-bounded chunks this way to amortize per-message cost — decode by
// repeated calls. The returned Data aliases b.
func DecodeChunkPrefix(b []byte) (Chunk, int, error) {
	if len(b) < ChunkHeaderLen {
		return Chunk{}, 0, fmt.Errorf("%w: chunk: short header (%d bytes)", ErrFrame, len(b))
	}
	dataLen := binary.LittleEndian.Uint32(b[29:])
	n := ChunkHeaderLen + int(dataLen)
	if int(dataLen) > MaxFrame || n > len(b) {
		return Chunk{}, 0, fmt.Errorf("%w: chunk: frame wants %d bytes, %d present", ErrFrame, n, len(b))
	}
	c, err := DecodeChunk(b[:n])
	if err != nil {
		return Chunk{}, 0, err
	}
	return c, n, nil
}

// DecodeChunk parses and verifies one chunk encoding. The returned Data
// aliases b. Any mismatch — truncation, trailing bytes, a failed CRC, or an
// inconsistent header — is an ErrFrame: chunked receivers fail loudly rather
// than fold questionable bytes into parity.
func DecodeChunk(b []byte) (Chunk, error) {
	var c Chunk
	bad := func(format string, args ...interface{}) (Chunk, error) {
		return Chunk{}, fmt.Errorf("%w: chunk: %s", ErrFrame, fmt.Sprintf(format, args...))
	}
	if len(b) < ChunkHeaderLen {
		return bad("short header (%d bytes)", len(b))
	}
	c.Offset = binary.LittleEndian.Uint64(b)
	c.Total = binary.LittleEndian.Uint64(b[8:])
	c.Index = binary.LittleEndian.Uint32(b[16:])
	c.Count = binary.LittleEndian.Uint32(b[20:])
	flags := b[24]
	c.RawLen = binary.LittleEndian.Uint32(b[25:])
	dataLen := binary.LittleEndian.Uint32(b[29:])
	crc := binary.LittleEndian.Uint32(b[33:])
	if int(dataLen) != len(b)-ChunkHeaderLen {
		return bad("data length %d, %d bytes present", dataLen, len(b)-ChunkHeaderLen)
	}
	// Verify the CRC over the exact bytes as sent, with the CRC field zeroed,
	// in pieces the way appendChunkHeader computes it.
	sum := crc32.ChecksumIEEE(b[:ChunkHeaderLen-4])
	sum = crc32.Update(sum, crc32.IEEETable, zeroCRC[:])
	sum = crc32.Update(sum, crc32.IEEETable, b[ChunkHeaderLen:])
	if sum != crc {
		return bad("crc mismatch (got %08x, header says %08x)", sum, crc)
	}
	if flags != 0 {
		return bad("flags %#x set", flags)
	}
	if c.Count == 0 || c.Count > MaxChunkCount {
		return bad("count %d out of range", c.Count)
	}
	if c.Index >= c.Count {
		return bad("index %d of %d", c.Index, c.Count)
	}
	if c.Total > MaxFrame {
		return bad("total %d exceeds frame limit", c.Total)
	}
	// Offset first: Offset+RawLen can wrap past 2^64 to a small sum.
	if c.RawLen > MaxFrame || c.Offset > c.Total || uint64(c.RawLen) > c.Total-c.Offset {
		return bad("range [%d,+%d) outside total %d", c.Offset, c.RawLen, c.Total)
	}
	if c.RawLen != dataLen {
		return bad("rawlen %d with %d data bytes", c.RawLen, dataLen)
	}
	c.Data = b[ChunkHeaderLen:]
	return c, nil
}

// Assembler reassembles a chunk stream into its contiguous byte image.
// Chunks may arrive in any order; an exact duplicate of an already-applied
// chunk is an idempotent no-op (retried RPCs re-deliver chunks whose reply
// was lost), while any conflicting delivery — overlapping ranges from
// different chunks, a duplicate index with different content, or headers
// disagreeing about the stream shape — is a hard error.
type Assembler struct {
	// Alloc provides the backing buffer; nil = make.
	// Set it before the first Add.
	Alloc func(int) []byte

	buf     []byte
	started bool
	total   uint64
	count   uint32
	offs    []uint64
	lens    []uint32
	seen    []bool
	got     uint32
	covered uint64
}

// Add verifies one chunk against the stream and copies its data into place.
func (a *Assembler) Add(c Chunk) error {
	bad := func(format string, args ...interface{}) error {
		return fmt.Errorf("%w: assemble: %s", ErrFrame, fmt.Sprintf(format, args...))
	}
	if !a.started {
		a.started = true
		a.total, a.count = c.Total, c.Count
		alloc := a.Alloc
		if alloc == nil {
			alloc = func(n int) []byte { return make([]byte, n) }
		}
		a.buf = alloc(int(a.total))
		a.offs = make([]uint64, a.count)
		a.lens = make([]uint32, a.count)
		a.seen = make([]bool, a.count)
	}
	if c.Total != a.total || c.Count != a.count {
		return bad("chunk %d describes stream %d/%d, assembling %d/%d",
			c.Index, c.Total, c.Count, a.total, a.count)
	}
	if c.Index >= a.count || c.Offset > a.total || uint64(c.RawLen) > a.total-c.Offset {
		return bad("chunk %d range [%d,+%d) outside stream", c.Index, c.Offset, c.RawLen)
	}
	if a.seen[c.Index] {
		if c.Offset != a.offs[c.Index] || c.RawLen != a.lens[c.Index] ||
			!bytes.Equal(c.Data, a.buf[c.Offset:c.Offset+uint64(c.RawLen)]) {
			return bad("chunk %d re-delivered with different content", c.Index)
		}
		return nil // idempotent duplicate
	}
	for i := range a.seen {
		if !a.seen[i] || a.lens[i] == 0 || c.RawLen == 0 {
			continue
		}
		if c.Offset < a.offs[i]+uint64(a.lens[i]) && a.offs[i] < c.Offset+uint64(c.RawLen) {
			return bad("chunk %d [%d,+%d) overlaps chunk %d [%d,+%d)",
				c.Index, c.Offset, c.RawLen, i, a.offs[i], a.lens[i])
		}
	}
	copy(a.buf[c.Offset:], c.Data)
	a.offs[c.Index], a.lens[c.Index] = c.Offset, c.RawLen
	a.seen[c.Index] = true
	a.got++
	a.covered += uint64(c.RawLen)
	return nil
}

// Complete reports whether every chunk arrived and the stream is fully
// covered.
func (a *Assembler) Complete() bool {
	return a.started && a.got == a.count && a.covered == a.total
}

// Bytes returns the assembled image; ownership transfers to the caller.
func (a *Assembler) Bytes() ([]byte, error) {
	if !a.Complete() {
		var missing uint32
		if a.started {
			missing = a.count - a.got
		}
		return nil, fmt.Errorf("%w: assemble: stream incomplete (%d chunks missing, %d/%d bytes)",
			ErrFrame, missing, a.covered, a.total)
	}
	return a.buf, nil
}
