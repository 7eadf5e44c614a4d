package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the frame decoder: it must never
// panic, and everything it accepts must re-encode to the same bytes
// (canonical form).
func FuzzDecode(f *testing.F) {
	f.Add(sample().Encode())
	f.Add((&Message{Type: MsgHello}).Encode())
	f.Add([]byte{})
	f.Add([]byte("DVDCDVDCDVDCDVDCDVDCDVDC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re := m.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical frame: % x -> % x", data, re)
		}
	})
}

// checkReadFrame runs body b through both entry points. Decode fails only
// with ErrFrame; ReadFrame over the length-prefixed stream returns an equal
// message or fails alike; and an accepted frame's stream cut inside the body
// — at its start, inside or between head fields, inside the payload — fails
// with the io error one io.ReadFull of the body gives, never ErrFrame.
func checkReadFrame(t testing.TB, name string, b []byte) {
	t.Helper()
	stream := append(binary.LittleEndian.AppendUint32(nil, uint32(len(b))), b...)
	want, derr := Decode(b)
	// The stream decodes into a message that held another frame, as a
	// connection's does: nothing of the earlier frame may survive.
	got := sample()
	rerr := ReadFrame(bytes.NewReader(stream), got)
	if (derr != nil && !IsDecodeErr(derr)) || (derr == nil) != (rerr == nil) || IsDecodeErr(derr) != IsDecodeErr(rerr) {
		t.Errorf("%s: Decode: %v; ReadFrame: %v", name, derr, rerr)
		return
	}
	if derr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: ReadFrame read %+v, Decode %+v", name, got, want)
	}
	head := len(b) - len(want.Payload)
	for _, cut := range []int{0, 1, FixedHeaderLen + 2, FixedHeaderLen + 6 + len(want.VM), head - 1, head, len(b) - 1 - len(want.Payload)/2} {
		if cut >= len(b) {
			continue
		}
		wantErr := io.ErrUnexpectedEOF
		if cut == 0 {
			wantErr = io.EOF
		}
		if _, err := readMsg(bytes.NewReader(stream[:4+cut])); !errors.Is(err, wantErr) {
			t.Errorf("%s: stream cut %d bytes into the body: %v, want %v", name, cut, err, wantErr)
		}
	}
}

// FuzzReadFrame checks the streamed reader against Decode (checkReadFrame),
// seeded with FuzzDecode's checked-in chaos corpus.
func FuzzReadFrame(f *testing.F) {
	for _, e := range chaosCorpusFiles(f) {
		f.Add(e.frame)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkReadFrame(t, "frame", b) })
}

// FuzzRoundTrip checks that any field combination survives encode/decode.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(7), int32(-2), uint64(9), "vm", "text", []byte{1, 2})
	f.Fuzz(func(t *testing.T, typ uint8, epoch uint64, group int32, arg uint64, vm, text string, payload []byte) {
		// A VM name's length travels as a uint16: WriteFrame refuses names
		// longer than 65 535 bytes, and Encode would wrap the length.
		if len(vm) > 65535 {
			vm = vm[:65535]
		}
		m := &Message{Type: MsgType(typ), Epoch: epoch, Group: group, Arg: arg, VM: vm, Text: text, Payload: payload}
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if got.Type != m.Type || got.Epoch != epoch || got.Group != group ||
			got.Arg != arg || got.VM != vm || got.Text != text || !bytes.Equal(got.Payload, payload) {
			t.Fatal("round trip mismatch")
		}
	})
}
