package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

func TestChunkCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 65536} {
		block := make([]byte, n)
		rng.Read(block)
		for _, cs := range []int{1, 7, 64, 4096, 65536} {
			count := ChunkCount(n, cs)
			for i := 0; i < count; i++ {
				c, err := ChunkOf(block, i, cs)
				if err != nil {
					t.Fatalf("n=%d cs=%d: %v", n, cs, err)
				}
				got, err := DecodeChunk(EncodeChunk(&c))
				if err != nil {
					t.Fatalf("n=%d cs=%d i=%d: %v", n, cs, i, err)
				}
				if got.Offset != c.Offset || got.Total != c.Total || got.Index != c.Index ||
					got.Count != c.Count || got.RawLen != c.RawLen || !bytes.Equal(got.Data, c.Data) {
					t.Fatalf("n=%d cs=%d i=%d: round trip mismatch", n, cs, i)
				}
			}
		}
	}
}

// TestSealChunkMatchesAppendChunk: a frame whose data was rendered in place
// behind a header slot and then sealed is byte for byte AppendChunk's encoding
// of the same chunk, at data lengths around the CRC kernel's tails.
func TestSealChunkMatchesAppendChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, 15, 16, 17, 4096, 65536} {
		data := make([]byte, n)
		rng.Read(data)
		c := Chunk{Offset: 3 * uint64(n), Total: 4*uint64(n) + 1, Index: 2, Count: 5, RawLen: uint32(n)}
		batch := bytes.Repeat([]byte{0xFF}, 7+ChunkHeaderLen+n) // a frame in the middle of a dirty buffer
		frame := batch[7:]
		copy(frame[ChunkHeaderLen:], data)
		SealChunk(frame, &c)
		c.Data = data
		if want := EncodeChunk(&c); !bytes.Equal(frame, want) {
			t.Fatalf("n=%d: sealed frame diverges from AppendChunk's encoding", n)
		}
		if !bytes.Equal(batch[:7], bytes.Repeat([]byte{0xFF}, 7)) {
			t.Fatalf("n=%d: SealChunk wrote before its frame", n)
		}
	}
}

// TestDecodeChunkAllocatesNothing: a keeper decodes every frame of every batch
// it receives, so verifying one costs no heap allocation — the CRC runs in
// pieces over the frame as it lies, with no hasher and no zero-field scratch.
func TestDecodeChunkAllocatesNothing(t *testing.T) {
	block := bytes.Repeat([]byte{0x5A}, 3*4096+17)
	var batch []byte
	for i := 0; i < ChunkCount(len(block), 4096); i++ {
		c, err := ChunkOf(block, i, 4096)
		if err != nil {
			t.Fatal(err)
		}
		batch = AppendChunk(batch, &c)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for b := batch; len(b) > 0; {
			_, n, err := DecodeChunkPrefix(b)
			if err != nil {
				t.Fatal(err)
			}
			b = b[n:]
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding a batch of 4 frames allocated %.1f times", allocs)
	}
}

// TestChunkAtDescribesChunkOf: ChunkAt is ChunkOf without the slice, for
// blocks held in pieces.
func TestChunkAtDescribesChunkOf(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097, 10000} {
		block := make([]byte, n)
		for _, cs := range []int{1, 7, 4096} {
			for i := -1; i <= ChunkCount(n, cs); i++ {
				want, werr := ChunkOf(block, i, cs)
				got, gerr := ChunkAt(n, i, cs)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("n=%d cs=%d i=%d: ChunkOf error %v, ChunkAt error %v", n, cs, i, werr, gerr)
				}
				if got.Data != nil || got.Offset != want.Offset || got.Total != want.Total || got.Index != want.Index ||
					got.Count != want.Count || got.RawLen != want.RawLen || len(want.Data) != int(want.RawLen) {
					t.Fatalf("n=%d cs=%d i=%d: ChunkAt %+v, ChunkOf %+v", n, cs, i, got, want)
				}
			}
		}
	}
}

func TestChunkCRCDetectsEveryByteFlip(t *testing.T) {
	c, err := ChunkOf([]byte("chunked data path payload"), 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeChunk(&c)
	for pos := range enc {
		for bit := 0; bit < 8; bit++ {
			mangled := append([]byte(nil), enc...)
			mangled[pos] ^= 1 << bit
			if _, err := DecodeChunk(mangled); err == nil {
				t.Fatalf("flip at byte %d bit %d accepted", pos, bit)
			} else if !errors.Is(err, ErrFrame) {
				t.Fatalf("flip at byte %d bit %d: untyped error %v", pos, bit, err)
			}
		}
	}
}

func TestChunkDecodeRejectsTruncationAndTrailing(t *testing.T) {
	c, err := ChunkOf(bytes.Repeat([]byte{7}, 100), 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeChunk(&c)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeChunk(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := DecodeChunk(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestDecodeChunkPrefixBatch walks a buffer of back-to-back frames (the
// shipping path's batched message payload) and checks every frame decodes
// with the right consumed length, in order, with intact data.
func TestDecodeChunkPrefixBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	block := make([]byte, 1000)
	rng.Read(block)
	const cs = 150
	count := ChunkCount(len(block), cs)
	var batch []byte
	for i := 0; i < count; i++ {
		c, err := ChunkOf(block, i, cs)
		if err != nil {
			t.Fatal(err)
		}
		batch = AppendChunk(batch, &c)
	}
	buf, decoded := batch, 0
	for len(buf) > 0 {
		c, n, err := DecodeChunkPrefix(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", decoded, err)
		}
		if n != ChunkHeaderLen+len(c.Data) {
			t.Fatalf("frame %d: consumed %d, frame is %d", decoded, n, ChunkHeaderLen+len(c.Data))
		}
		if int(c.Index) != decoded {
			t.Fatalf("frame %d decoded out of order as index %d", decoded, c.Index)
		}
		want := block[c.Offset : c.Offset+uint64(c.RawLen)]
		if !bytes.Equal(c.Data, want) {
			t.Fatalf("frame %d: data mismatch", decoded)
		}
		buf = buf[n:]
		decoded++
	}
	if decoded != count {
		t.Fatalf("decoded %d frames, packed %d", decoded, count)
	}
}

// TestDecodeChunkPrefixRejectsMangledBatch: truncations anywhere in a batch,
// an empty buffer, and corrupt interior frames are all loud ErrFrame
// failures, never a silent short decode.
func TestDecodeChunkPrefixRejectsMangledBatch(t *testing.T) {
	c1, err := ChunkOf(bytes.Repeat([]byte{3}, 96), 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ChunkOf(bytes.Repeat([]byte{3}, 96), 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	batch := AppendChunk(AppendChunk(nil, &c1), &c2)
	first := ChunkHeaderLen + len(c1.Data)

	if _, _, err := DecodeChunkPrefix(nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("empty buffer: %v", err)
	}
	// Truncating inside the second frame: the first decodes, the remainder
	// must fail instead of being swallowed.
	for cut := first + 1; cut < len(batch); cut++ {
		_, n, err := DecodeChunkPrefix(batch[:cut])
		if err != nil {
			t.Fatalf("first frame of %d-byte truncation: %v", cut, err)
		}
		if _, _, err := DecodeChunkPrefix(batch[n:cut]); !errors.Is(err, ErrFrame) {
			t.Fatalf("truncated second frame accepted at cut %d: %v", cut, err)
		}
	}
	// A flipped byte in the second frame fails its CRC even though the batch
	// length is intact.
	mangled := append([]byte(nil), batch...)
	mangled[first+ChunkHeaderLen] ^= 0x40
	if _, n, err := DecodeChunkPrefix(mangled); err != nil || n != first {
		t.Fatalf("first frame after interior corruption: n=%d err=%v", n, err)
	}
	if _, _, err := DecodeChunkPrefix(mangled[first:]); !errors.Is(err, ErrFrame) {
		t.Fatalf("corrupt second frame accepted: %v", err)
	}
}

// TestChunkDecodeRefusesFlags: the flags byte is always written 0, and a
// frame with any flag set is refused even when its CRC is valid — the decoder
// knows one encoding, so a keeper never folds bytes it cannot read as raw.
func TestChunkDecodeRefusesFlags(t *testing.T) {
	c, err := ChunkOf(bytes.Repeat([]byte{0xAB}, 64), 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeChunk(&c)
	if enc[24] != 0 {
		t.Fatalf("flags byte encoded as %#x", enc[24])
	}
	for _, flags := range []byte{1, 0x80} {
		if _, err := DecodeChunk(withFlags(enc, flags)); !errors.Is(err, ErrFrame) {
			t.Fatalf("flags %#x with a valid CRC: err = %v, want ErrFrame", flags, err)
		}
	}
}

// TestChunkDecodeRefusesWrappingRange: a chunk whose offset plus length
// wraps past 2^64 must not pass the range check as a small sum. Decoding
// refuses it, and so does an assembler handed the chunk directly, with an
// error rather than a slice-bounds panic.
func TestChunkDecodeRefusesWrappingRange(t *testing.T) {
	c := Chunk{Offset: ^uint64(0) - 9, Total: 100, Index: 0, Count: 1, RawLen: 20, Data: bytes.Repeat([]byte{0xCD}, 20)}
	enc := EncodeChunk(&c)
	if _, err := DecodeChunk(enc); !errors.Is(err, ErrFrame) {
		t.Fatalf("DecodeChunk: err = %v, want ErrFrame", err)
	}
	if _, _, err := DecodeChunkPrefix(enc); !errors.Is(err, ErrFrame) {
		t.Fatalf("DecodeChunkPrefix: err = %v, want ErrFrame", err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Assembler.Add panicked: %v", r)
		}
	}()
	var asm Assembler
	if err := asm.Add(c); err == nil {
		t.Fatal("Assembler.Add accepted a wrapping range")
	}
}

// withFlags returns a copy of a chunk encoding with its flags byte set to
// flags and the CRC recomputed over the result, so only the flags are wrong.
func withFlags(enc []byte, flags byte) []byte {
	b := append([]byte(nil), enc...)
	b[24] = flags
	binary.LittleEndian.PutUint32(b[ChunkHeaderLen-4:], 0)
	binary.LittleEndian.PutUint32(b[ChunkHeaderLen-4:], crc32.ChecksumIEEE(b))
	return b
}

func TestAssemblerOutOfOrderAndDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	payload := make([]byte, 10000)
	rng.Read(payload)
	const cs = 777
	count := ChunkCount(len(payload), cs)
	order := rng.Perm(count)
	var asm Assembler
	for _, i := range order {
		c, err := ChunkOf(payload, i, cs)
		if err != nil {
			t.Fatal(err)
		}
		if err := asm.Add(c); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		// An exact duplicate is an idempotent no-op.
		if err := asm.Add(c); err != nil {
			t.Fatalf("duplicate of chunk %d rejected: %v", i, err)
		}
	}
	if !asm.Complete() {
		t.Fatal("stream not complete after all chunks")
	}
	got, err := asm.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("assembled bytes differ from payload")
	}
}

func TestAssemblerRejectsConflicts(t *testing.T) {
	payload := bytes.Repeat([]byte{1, 2, 3, 4}, 100)
	const cs = 64
	var asm Assembler
	c0, _ := ChunkOf(payload, 0, cs)
	if err := asm.Add(c0); err != nil {
		t.Fatal(err)
	}
	// Same index, different content.
	bad := c0
	bad.Data = append([]byte(nil), c0.Data...)
	bad.Data[0] ^= 0xFF
	if err := asm.Add(bad); err == nil {
		t.Fatal("conflicting duplicate accepted")
	}
	// Different index claiming an overlapping range.
	c1, _ := ChunkOf(payload, 1, cs)
	c1.Offset = 10
	if err := asm.Add(c1); err == nil {
		t.Fatal("overlapping chunk accepted")
	}
	// A chunk describing a different stream shape.
	c2, _ := ChunkOf(payload, 2, cs)
	c2.Total++
	if err := asm.Add(c2); err == nil {
		t.Fatal("mismatched stream shape accepted")
	}
	// Incomplete stream must refuse to hand out bytes.
	if _, err := asm.Bytes(); err == nil {
		t.Fatal("incomplete stream produced bytes")
	}
}

func TestAssemblerEmptyStream(t *testing.T) {
	// An empty payload still announces itself as one zero-length chunk.
	c, err := ChunkOf(nil, 0, DefaultChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	var asm Assembler
	if err := asm.Add(c); err != nil {
		t.Fatal(err)
	}
	if !asm.Complete() {
		t.Fatal("empty stream not complete")
	}
	got, err := asm.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty stream assembled %d bytes", len(got))
	}
}
