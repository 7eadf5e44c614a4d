package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func sample() *Message {
	return &Message{
		Type:    MsgDelta,
		Epoch:   42,
		Group:   -3,
		Arg:     0xdeadbeef,
		Trace:   0x1122334455667788,
		Span:    0x99aabbccddeeff00,
		VM:      "vm-01.02",
		Text:    "aux",
		Payload: []byte{1, 2, 3, 4, 5},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sample()
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.Epoch != m.Epoch || got.Group != m.Group ||
		got.Arg != m.Arg || got.Trace != m.Trace || got.Span != m.Span ||
		got.VM != m.VM || got.Text != m.Text ||
		!bytes.Equal(got.Payload, m.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, m)
	}
}

// TestTraceOffsets pins the header offsets readFrame parses the trace context
// at to the ones Encode writes it at.
func TestTraceOffsets(t *testing.T) {
	enc := sample().Encode()
	if got := binaryLE64(enc[traceOffset:]); got != sample().Trace {
		t.Errorf("Trace at offset %d = %x", traceOffset, got)
	}
	if got := binaryLE64(enc[spanOffset:]); got != sample().Span {
		t.Errorf("Span at offset %d = %x", spanOffset, got)
	}
	if FixedHeaderLen != spanOffset+8 {
		t.Error("FixedHeaderLen out of step with field offsets")
	}
}

func binaryLE64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func TestDecodeEmptyFields(t *testing.T) {
	m := &Message{Type: MsgHello}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.VM != "" || got.Text != "" || len(got.Payload) != 0 {
		t.Errorf("empty fields round trip: %+v", got)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	enc := sample().Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d/%d", cut, len(enc))
		}
	}
	if _, err := Decode(append(append([]byte(nil), enc...), 9)); err == nil {
		t.Error("accepted trailing byte")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	m := sample()
	if err := WriteFrame(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	got, err := readMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.VM != m.VM || !bytes.Equal(got.Payload, m.Payload) {
		t.Error("frame round trip mismatch")
	}
}

// pieceWriter records every Write it receives.
type pieceWriter struct{ pieces [][]byte }

func (w *pieceWriter) Write(b []byte) (int, error) {
	w.pieces = append(w.pieces, append([]byte(nil), b...))
	return len(b), nil
}

// TestWriteFrameBulkIsNotCopied: a payload beyond the inline limit reaches the
// writer as the caller's own slices — head, Payload, each segment, one Write
// apiece through a plain io.Writer — the bytes on the stream are the length
// prefix plus Encode, and a scatter list shared by several sends of one
// message survives the write (net.Buffers.WriteTo consumes what it is given).
func TestWriteFrameBulkIsNotCopied(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 3*inlinePayload)
	segs := net.Buffers{bytes.Repeat([]byte{1}, inlinePayload), nil, bytes.Repeat([]byte{2}, 10)}
	m := &Message{Type: MsgDeltaChunk, Epoch: 9, VM: "vm-bulk", Payload: payload, PayloadSegs: segs}
	for round := 0; round < 2; round++ {
		var w pieceWriter
		if err := WriteFrame(&w, m, nil); err != nil {
			t.Fatal(err)
		}
		if len(w.pieces) != 4 || !bytes.Equal(w.pieces[1], payload) || !bytes.Equal(w.pieces[2], segs[0]) || !bytes.Equal(w.pieces[3], segs[2]) {
			t.Fatalf("send %d: %d writes; want head, payload and the two non-empty segments", round, len(w.pieces))
		}
		body := m.Encode()
		want := append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
		if got := bytes.Join(w.pieces, nil); !bytes.Equal(got, want) {
			t.Fatalf("send %d: stream diverges from the length-prefixed Encode", round)
		}
		if len(m.PayloadSegs) != 3 || len(m.PayloadSegs[0]) != inlinePayload || len(m.PayloadSegs[2]) != 10 {
			t.Fatalf("send %d consumed the message's scatter list", round)
		}
	}
	// At the inline limit the frame is one Write.
	m = &Message{Type: MsgStats, Payload: payload[:inlinePayload]}
	var w pieceWriter
	if err := WriteFrame(&w, m, nil); err != nil || len(w.pieces) != 1 {
		t.Fatalf("inline frame: %d writes, err %v", len(w.pieces), err)
	}
}

// observingWriter is a pieceWriter that is also a FrameObserver: it records
// each observed frame's type and length and refuses frames while refuse is
// set.
type observingWriter struct {
	pieceWriter
	seen   []string
	refuse error
}

func (w *observingWriter) ObserveFrame(m Message, frameLen int) error {
	w.seen = append(w.seen, fmt.Sprintf("%s/%d", m.Type, frameLen))
	return w.refuse
}

// TestWriteFrameObservesEachFrameOnce: an observing writer hears of a frame
// once, before its first byte, with its length on the wire, however many
// Writes the frame takes; an error from the observer is WriteFrame's error,
// and nothing of that frame is written.
func TestWriteFrameObservesEachFrameOnce(t *testing.T) {
	bulk := &Message{Type: MsgDeltaChunk, VM: "vm", Payload: bytes.Repeat([]byte{3}, 2*inlinePayload)}
	ctl := &Message{Type: MsgCommit, Epoch: 4}
	var w observingWriter
	for _, m := range []*Message{bulk, ctl} {
		if err := WriteFrame(&w, m, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{fmt.Sprintf("delta-chunk/%d", 4+len(bulk.Encode())), fmt.Sprintf("commit/%d", 4+len(ctl.Encode()))}
	if !slices.Equal(w.seen, want) || len(w.pieces) != 3 {
		t.Fatalf("observed %v over %d writes, want %v over 3", w.seen, len(w.pieces), want)
	}
	w.refuse = errors.New("refused")
	if err := WriteFrame(&w, bulk, nil); err != w.refuse || len(w.pieces) != 3 {
		t.Fatalf("refused frame: err %v, %d writes, want the observer's error and no write", err, len(w.pieces))
	}
}

// frameCounter discards what is written to it and counts observed frames,
// allocating nothing of its own.
type frameCounter struct{ frames int }

func (c *frameCounter) Write(b []byte) (int, error) { return len(b), nil }

func (c *frameCounter) ObserveFrame(Message, int) error {
	c.frames++
	return nil
}

// TestWriteFrameAllocs pins WriteFrame's allocations for a control frame
// (none: the head buffer is pooled) and a bulk frame (none once the writer's
// scatter list has grown; without one, a fresh list, its backing array and
// its header per frame), through a
// plain writer and through an observer: observing hands the observer a copy
// of the message, which allocates nothing.
func TestWriteFrameAllocs(t *testing.T) {
	ctl := &Message{Type: MsgPrepare, Epoch: 3, VM: "vm1", Trace: 1, Span: 2}
	bulk := &Message{Type: MsgDeltaChunk, Epoch: 3, VM: "vm1", Payload: bytes.Repeat([]byte{1}, 16*inlinePayload)}
	for _, w := range []io.Writer{io.Discard, &frameCounter{}} {
		segs := new(net.Buffers)
		for _, tc := range []struct {
			m    *Message
			segs *net.Buffers
			want float64
		}{{ctl, segs, 0}, {bulk, segs, 0}, {bulk, nil, 3}} {
			got := testing.AllocsPerRun(100, func() {
				if err := WriteFrame(w, tc.m, tc.segs); err != nil {
					t.Fatal(err)
				}
			})
			if got != tc.want {
				t.Errorf("WriteFrame(%T, %s, own list %t) allocates %v times, want %v", w, tc.m.Type, tc.segs != nil, got, tc.want)
			}
		}
	}
	if c := (&frameCounter{}); WriteFrame(c, ctl, nil) != nil || c.frames != 1 {
		t.Fatalf("observer saw %d frames, want 1", c.frames)
	}
}

// readMsg reads one frame into a fresh message.
func readMsg(r io.Reader) (*Message, error) {
	m := new(Message)
	if err := ReadFrame(r, m); err != nil {
		return nil, err
	}
	return m, nil
}

// TestReadFrameReusesMessage: frames read one after another into one message
// overwrite every field — nothing of the earlier frame survives — and keep a
// VM name or Text equal to the one the message holds, so decoding a run of
// frames about one VM into a message its connection owns allocates nothing.
func TestReadFrameReusesMessage(t *testing.T) {
	frames := []*Message{
		{Type: MsgDeltaChunk, Epoch: 5, Group: 2, Arg: 7, Trace: 8, Span: 9, VM: "vm-07", Text: "t", Payload: []byte{1, 2}},
		{Type: MsgDeltaChunk, Epoch: 6, VM: "vm-07"},
		{Type: MsgCommitOK, Epoch: 6},
	}
	var stream bytes.Buffer
	for _, m := range frames {
		if err := WriteFrame(&stream, m, nil); err != nil {
			t.Fatal(err)
		}
	}
	var got Message
	vm := ""
	for i, want := range frames {
		if err := ReadFrame(&stream, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("frame %d read as %+v, want %+v", i, got, *want)
		}
		if i == 1 && unsafe.StringData(got.VM) != unsafe.StringData(vm) {
			t.Error("an unchanged VM name was allocated again")
		}
		vm = got.VM
	}
	if err := WriteFrame(&stream, frames[1], nil); err != nil {
		t.Fatal(err)
	}
	b := stream.Bytes()
	r := bytes.NewReader(b)
	if allocs := testing.AllocsPerRun(100, func() {
		r.Reset(b)
		if err := ReadFrame(r, &got); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("reading a control frame about the same VM into its message allocates %v times, want 0", allocs)
	}
}

// TestWriteFrameRefusesLongVMName: a VM name's length travels as a uint16. A
// 65 536-byte name would go out with a wrapped length and the peer would
// misparse the frame, so WriteFrame refuses it and writes nothing; a
// 65 535-byte name — longer than ReadFrame's head scratch, as is the Text —
// round-trips.
func TestWriteFrameRefusesLongVMName(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, &Message{Type: MsgInstall, VM: strings.Repeat("v", 1<<16)}, nil)
	if !errors.Is(err, ErrFrame) || buf.Len() != 0 {
		t.Fatalf("65536-byte VM name: err %v, %d bytes written", err, buf.Len())
	}
	m := &Message{Type: MsgInstall, VM: strings.Repeat("v", 1<<16-1), Text: strings.Repeat("t", 5000), Payload: []byte{7}}
	if err := WriteFrame(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	got, err := readMsg(&buf)
	if err != nil || got.VM != m.VM || got.Text != m.Text || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("65535-byte VM name did not round-trip: %v", err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB length prefix
	if _, err := readMsg(&buf); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestMultipleFramesOnStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		m := sample()
		m.Epoch = uint64(i)
		if err := WriteFrame(&buf, m, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		got, err := readMsg(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != uint64(i) {
			t.Errorf("frame %d: epoch %d", i, got.Epoch)
		}
	}
}

func TestErrorHelpers(t *testing.T) {
	e := Errorf("boom %d", 7)
	if e.Type != MsgError || e.Text != "boom 7" {
		t.Errorf("Errorf: %+v", e)
	}
	if err := e.AsError(); err == nil {
		t.Error("AsError should be non-nil for MsgError")
	}
	ok := &Message{Type: MsgCommitOK}
	if err := ok.AsError(); err != nil {
		t.Error("AsError should be nil for non-errors")
	}
}

func TestMsgTypeString(t *testing.T) {
	for mt := MsgHello; mt <= MsgError; mt++ {
		if mt.String() == "" {
			t.Errorf("empty name for %d", mt)
		}
	}
	if MsgType(200).String() == "" {
		t.Error("unknown type should render")
	}
}

// Property: arbitrary field contents round trip exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(epoch uint64, group int32, arg uint64, vm, text string, payload []byte) bool {
		if len(vm) > 1000 {
			vm = vm[:1000]
		}
		m := &Message{Type: MsgImage, Epoch: epoch, Group: group, Arg: arg, VM: vm, Text: text, Payload: payload}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		return got.Epoch == epoch && got.Group == group && got.Arg == arg &&
			got.VM == vm && got.Text == text && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
