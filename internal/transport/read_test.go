package transport

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"dvdc/internal/bufpool"
	"dvdc/internal/wire"
)

// copyingReadAllocs is AllocsPerRun of each shape's read when ReadFrame read
// a body into scratch and copied the payload out: the escaping length-prefix
// array, the Message, and the one non-empty VM or Text string. Reading in
// place dropped the prefix array; reading into the message the connection
// owns, which keeps a VM name or Text equal to the one it holds, drops the
// other two.
const copyingReadAllocs = 3

// readShape is one kind of frame the receive path sees.
type readShape struct {
	name string
	m    *wire.Message
}

func readShapes() []readShape {
	chunk := wire.DefaultChunkSize + wire.ChunkHeaderLen
	return []readShape{
		// A delta batch of three default-size chunk frames (~192 KiB).
		{"delta-batch", &wire.Message{Type: wire.MsgDeltaChunk, Epoch: 7, Group: 2, VM: "vm-01.02",
			Payload: bytes.Repeat([]byte{0xD1}, 3*chunk)}},
		// A read-chunk reply: one 64 KiB chunk frame.
		{"read-chunk-reply", &wire.Message{Type: wire.MsgReadChunkOK, Group: 2, VM: "vm-01.02",
			Payload: bytes.Repeat([]byte{0xC4}, chunk)}},
		{"control", &wire.Message{Type: wire.MsgPrepareOK, Epoch: 7, Arg: 3 * uint64(chunk),
			Text: `{"Chunks":3,"Deduped":0}`}},
	}
}

// socket is the stream under a connection's reader; it counts the bytes it
// delivers into the reader's own buffer. A read that asks for more than the
// buffer holds goes straight to the caller's slice.
type socket struct {
	bytes.Reader
	staged int
}

func (s *socket) Read(p []byte) (int, error) {
	n, err := s.Reader.Read(p)
	if len(p) <= readerSize {
		s.staged += n
	}
	return n, err
}

// frameReader renders m as a stream and returns it behind a reader of the
// transport's size.
func frameReader(t testing.TB, m *wire.Message) (*socket, *bufio.Reader, []byte) {
	t.Helper()
	var enc bytes.Buffer
	if err := wire.WriteFrame(&enc, m, nil); err != nil {
		t.Fatal(err)
	}
	src := &socket{}
	src.Reset(enc.Bytes())
	return src, bufio.NewReaderSize(src, readerSize), enc.Bytes()
}

// TestReadFrameBulkIsReadInPlace is the receive side's counterpart of
// wire.TestWriteFrameBulkIsNotCopied: through a reader of the transport's
// size, a payload frame takes exactly one pooled buffer — the one its payload
// is read into; reading a body into scratch and copying the payload out took
// two — a control frame takes none, no more than an eighth of a bulk payload
// passes through the reader's buffer (the rest is read straight into the
// pooled buffer), and a frame read into the message its connection reuses
// allocates nothing, where the copying read allocated copyingReadAllocs.
func TestReadFrameBulkIsReadInPlace(t *testing.T) {
	for _, sh := range readShapes() {
		src, r, stream := frameReader(t, sh.m)
		g0 := bufpool.Snapshot().Gets
		var got wire.Message
		err := wire.ReadFrame(r, &got)
		gets := bufpool.Snapshot().Gets - g0
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if !reflect.DeepEqual(&got, sh.m) {
			t.Fatalf("%s: read back a different message", sh.name)
		}
		want := int64(0)
		if len(sh.m.Payload) > 0 {
			want = 1
		}
		if gets != want {
			t.Errorf("%s: %d pooled Gets, want %d", sh.name, gets, want)
		}
		if len(sh.m.Payload) > readerSize && src.staged > len(sh.m.Payload)/8 {
			t.Errorf("%s: %d bytes of the %d-byte frame staged in the reader", sh.name, src.staged, len(stream))
		}
		bufpool.Put(got.Payload)
		allocs := testing.AllocsPerRun(100, func() {
			src.Reset(stream)
			r.Reset(src)
			if err := wire.ReadFrame(r, &got); err != nil {
				panic(err)
			}
			bufpool.Put(got.Payload)
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per frame read into a reused message, want 0 (copying read: %d)", sh.name, allocs, copyingReadAllocs)
		}
	}
}

// BenchmarkReadFrame reads each shape through a reader of the transport's
// size; run with -benchmem.
func BenchmarkReadFrame(b *testing.B) {
	for _, sh := range readShapes() {
		b.Run(sh.name, func(b *testing.B) {
			src, r, stream := frameReader(b, sh.m)
			b.SetBytes(int64(len(stream)))
			b.ReportAllocs()
			var m wire.Message
			for i := 0; i < b.N; i++ {
				src.Reset(stream)
				r.Reset(src)
				if err := wire.ReadFrame(r, &m); err != nil {
					b.Fatal(err)
				}
				bufpool.Put(m.Payload)
			}
		})
	}
}
