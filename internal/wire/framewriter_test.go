package wire

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dvdc/internal/bufpool"
)

var regenSGCorpus = flag.Bool("regen-sg-corpus", false, "rewrite the scatter-gather fuzz corpus under testdata/")

const sgCorpusDir = "testdata/fuzz/FuzzScatterGatherFrames"

// sgSeed is one scatter-gather fuzz seed: a stream to chunk and the chunk
// payload size.
type sgSeed struct {
	block     []byte
	chunkSize int
}

// sgCorpus deterministically generates the checked-in seed corpus for
// FuzzScatterGatherFrames: empty and single-byte streams, word-boundary-
// straddling chunk sizes, repetitive and random mid-size data, and
// page-scale random blocks. The
// generator is the source of truth; TestSGCorpusCheckedIn fails if the
// files on disk drift (rerun with -regen-sg-corpus to refresh).
func sgCorpus() []sgSeed {
	rng := rand.New(rand.NewSource(0x5CA77E2))
	randb := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	return []sgSeed{
		{nil, 64},         // empty stream still ships one frame
		{[]byte{0xA5}, 1}, // single byte, chunk per byte
		{randb(37), 7},    // header-size block, odd chunks
		{bytes.Repeat([]byte("checkpoint"), 200), 512}, // repetitive mid-size
		{randb(3000), 1024},                            // random mid-size
		{randb(4093), 37},                              // odd total, header-sized chunks
		{randb(4 * 4096), 4096},                        // page-aligned stream
	}
}

func sgCorpusPath(i int) string {
	return filepath.Join(sgCorpusDir, fmt.Sprintf("sg-%03d", i))
}

// encodeSGCorpusEntry renders one seed in the `go test fuzz v1` format for
// the (block, chunkSize) fuzz signature.
func encodeSGCorpusEntry(s sgSeed) []byte {
	return []byte("go test fuzz v1\n" +
		"[]byte(" + strconv.Quote(string(s.block)) + ")\n" +
		"int(" + strconv.Itoa(s.chunkSize) + ")\n")
}

// TestSGCorpusCheckedIn pins the checked-in corpus to the generator.
func TestSGCorpusCheckedIn(t *testing.T) {
	entries := sgCorpus()
	if *regenSGCorpus {
		if err := os.MkdirAll(sgCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, e := range entries {
			if err := os.WriteFile(sgCorpusPath(i), encodeSGCorpusEntry(e), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d corpus entries", len(entries))
		return
	}
	for i, e := range entries {
		got, err := os.ReadFile(sgCorpusPath(i))
		if err != nil {
			t.Fatalf("corpus entry %d missing (run go test -run TestSGCorpusCheckedIn -regen-sg-corpus): %v", i, err)
		}
		if !bytes.Equal(got, encodeSGCorpusEntry(e)) {
			t.Errorf("corpus entry %d drifted from generator", i)
		}
	}
}

// sgRoundTrip chunks block at chunkSize, encodes the stream through a
// FrameWriter, and asserts the scatter-gather form is byte-identical to the
// contiguous AppendChunk encoding, frames a Message through the segmented
// WriteFrame path, and decodes everything back through the unchanged
// DecodeChunkPrefix/Assembler pipeline.
func sgRoundTrip(t *testing.T, block []byte, chunkSize int) {
	t.Helper()
	count := ChunkCount(len(block), chunkSize)
	if count > MaxChunkCount {
		t.Skip("chunk count out of protocol range")
	}
	fw := FrameWriter{Alloc: bufpool.Get}
	defer fw.Release(bufpool.Put)
	scattered := FrameWriter{Alloc: bufpool.Get}
	defer scattered.Release(bufpool.Put)
	var contiguous []byte
	// Deterministic splitter for the AppendChunkScatter leg: cut each
	// chunk's data into uneven pieces (the ship path hands page subslices).
	pieceSizes := []int{1, 7, 64, 1024}
	for i := 0; i < count; i++ {
		c, err := ChunkOf(block, i, chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		// One-segment scatter: each chunk's data framed whole.
		fw.AppendChunkScatter(&c, [][]byte{c.Data})
		var pieces [][]byte
		for at, pi := 0, i; at < len(c.Data); pi++ {
			n := min(pieceSizes[pi%len(pieceSizes)], len(c.Data)-at)
			pieces = append(pieces, c.Data[at:at+n])
			at += n
		}
		stripped := c
		stripped.Data = nil
		scattered.AppendChunkScatter(&stripped, pieces)
		contiguous = AppendChunk(contiguous, &c)
	}
	if fw.Frames() != count {
		t.Fatalf("FrameWriter counts %d frames, appended %d", fw.Frames(), count)
	}
	if fw.Len() != len(contiguous) {
		t.Fatalf("FrameWriter length %d, contiguous encoding %d", fw.Len(), len(contiguous))
	}
	if got := fw.Bytes(); !bytes.Equal(got, contiguous) {
		t.Fatal("scatter-gather encoding diverges from AppendChunk")
	}
	if got := scattered.Bytes(); !bytes.Equal(got, contiguous) {
		t.Fatal("AppendChunkScatter encoding diverges from AppendChunk")
	}

	// Frame a message with the scatter list and read it back: the receiver
	// must see the contiguous payload.
	msg := &Message{Type: MsgDeltaChunk, Epoch: 3, VM: "vm-sg", PayloadSegs: fw.Segments()}
	var stream bytes.Buffer
	if err := WriteFrame(&stream, msg, nil); err != nil {
		t.Fatal(err)
	}
	rt, err := readMsg(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rt.Payload, contiguous) {
		t.Fatal("segmented WriteFrame payload diverges from contiguous encoding")
	}

	// Decode the received payload through the existing chunk pipeline.
	var asm Assembler
	rest := rt.Payload
	for len(rest) > 0 {
		c, n, err := DecodeChunkPrefix(rest)
		if err != nil {
			t.Fatalf("decode scatter-gather frame: %v", err)
		}
		if err := asm.Add(c); err != nil {
			t.Fatalf("assemble scatter-gather frame: %v", err)
		}
		rest = rest[n:]
	}
	out, err := asm.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, block) {
		t.Fatal("assembled stream diverges from source block")
	}
}

// FuzzScatterGatherFrames asserts the FrameWriter's scatter-gather frames
// are byte-identical to the contiguous encoding and decode through the
// unchanged DecodeChunk/Assembler path.
func FuzzScatterGatherFrames(f *testing.F) {
	for _, e := range sgCorpus() {
		f.Add(e.block, e.chunkSize)
	}
	f.Fuzz(func(t *testing.T, block []byte, chunkSize int) {
		if len(block) > 1<<18 {
			t.Skip("block beyond test scale")
		}
		chunkSize &= 0xFFFF
		if chunkSize == 0 {
			chunkSize = 1
		}
		sgRoundTrip(t, block, chunkSize)
	})
}

// TestScatterGatherCorpusRoundTrips runs every generated seed through the
// full round trip as a plain test, so the property holds in `go test` runs
// without the fuzz engine.
func TestScatterGatherCorpusRoundTrips(t *testing.T) {
	for i, e := range sgCorpus() {
		t.Run(fmt.Sprintf("seed-%03d", i), func(t *testing.T) {
			sgRoundTrip(t, e.block, e.chunkSize)
		})
	}
}

// TestFrameWriterResetReuse exercises arena reuse across Reset and the
// multi-arena growth path (enough frames to spill the first arena).
func TestFrameWriterGrowsArenas(t *testing.T) {
	var fw FrameWriter
	block := bytes.Repeat([]byte{0x42}, 4096)
	var contiguous []byte
	n := 2*frameWriterArenaHeaders + 3 // force a second and third arena
	for i := 0; i < n; i++ {
		c, err := ChunkOf(block, i, 16) // 256 chunks exist; reuse low indices
		if err != nil {
			c, err = ChunkOf(block, i%16, 256)
			if err != nil {
				t.Fatal(err)
			}
		}
		fw.AppendChunkScatter(&c, [][]byte{c.Data})
		contiguous = AppendChunk(contiguous, &c)
	}
	if got := fw.Bytes(); !bytes.Equal(got, contiguous) {
		t.Fatal("scatter-gather encoding across three arenas diverges from the contiguous one")
	}
	fw.Release(nil)
}
