// Package wire defines the framed binary protocol the distributed DVDC
// runtime speaks: a fixed header (type, epoch, group) plus string and byte
// fields, length-prefixed on the stream. The format is deliberately dumb —
// little-endian integers and explicit lengths — so a corrupted or truncated
// frame is always detected by the decoder rather than misparsed.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"dvdc/internal/bufpool"
)

// MsgType enumerates protocol messages.
type MsgType uint8

// Protocol messages. Requests originate at the coordinator unless noted.
const (
	MsgHello MsgType = iota + 1 // probe; node replies with MsgHelloOK
	MsgHelloOK
	MsgConfigure // assign VMs/keepers and peer addresses to a node
	MsgConfigureOK
	MsgStep // run workload steps on hosted VMs
	MsgStepOK
	MsgPrepare // phase 1: capture deltas, ship to parity peers, stage
	MsgPrepareOK
	MsgCommit // phase 2: fold staged deltas into parity
	MsgCommitOK
	MsgAbort // undo a prepared capture
	MsgAbortOK
	MsgDelta // reserved: retired whole-delta shipment (deltas travel as MsgDeltaChunk)
	MsgDeltaOK
	MsgGetImage // reserved: retired whole-image fetch (images are read via MsgReadChunk)
	MsgImage
	MsgReconstruct // the one rebuild request: decode a damaged group's lost elements from its surviving shards once (adopt its own, hand off the rest), or copy one element From a node
	MsgReconstructOK
	MsgInstall // reserved: retired move install (a move is a MsgReconstruct with From set)
	MsgInstallOK
	MsgChecksum // fetch a VM's committed-image checksum (verification)
	MsgChecksumOK
	MsgRollback // roll every hosted VM back to its committed checkpoint
	MsgRollbackOK
	MsgRebuildKeeper // reserved: retired parity re-home (re-homes ride their group's MsgReconstruct)
	MsgRebuildKeeperOK
	MsgSetParity // reserved: retired single parity-pointer update (pointers travel as MsgSetParityBatch)
	MsgSetParityOK
	MsgStats // fetch a node's protocol counters (JSON in Text)
	MsgStatsOK
	MsgGetParity // reserved: retired whole-block fetch (parity is read via MsgReadChunk)
	MsgGetParityOK
	MsgEvict // drop a quiescent VM from this node (its image already lives on the new host)
	MsgEvictOK
	MsgSetParityBatch // apply a batch of parity-node reassignments (JSON in Text)
	MsgSetParityBatchOK
	MsgError // any request may be answered with an error

	// Chunked data path (appended after MsgError so existing wire values —
	// and the checked-in fuzz corpus — keep their numbering).
	MsgDeltaChunk // node -> parity peer: one chunk of a staged delta stream
	MsgDeltaChunkOK
	MsgReadChunk // fetch one chunk of a committed image or parity block
	MsgReadChunkOK
	MsgInstallChunk // reserved: retired push-install chunk (the adopting node pulls via MsgReadChunk)
	MsgInstallChunkOK
)

// msgNames is package-level: String runs per RPC on the hot path (span
// names, metric labels) and rebuilding the table there dominated the data
// path's allocation profile.
var msgNames = map[MsgType]string{
	MsgHello: "hello", MsgHelloOK: "hello-ok",
	MsgConfigure: "configure", MsgConfigureOK: "configure-ok",
	MsgStep: "step", MsgStepOK: "step-ok",
	MsgPrepare: "prepare", MsgPrepareOK: "prepare-ok",
	MsgCommit: "commit", MsgCommitOK: "commit-ok",
	MsgAbort: "abort", MsgAbortOK: "abort-ok",
	MsgDelta: "delta", MsgDeltaOK: "delta-ok",
	MsgGetImage: "get-image", MsgImage: "image",
	MsgReconstruct: "reconstruct", MsgReconstructOK: "reconstruct-ok",
	MsgInstall: "install", MsgInstallOK: "install-ok",
	MsgChecksum: "checksum", MsgChecksumOK: "checksum-ok",
	MsgRollback: "rollback", MsgRollbackOK: "rollback-ok",
	MsgRebuildKeeper: "rebuild-keeper", MsgRebuildKeeperOK: "rebuild-keeper-ok",
	MsgSetParity: "set-parity", MsgSetParityOK: "set-parity-ok",
	MsgStats: "stats", MsgStatsOK: "stats-ok",
	MsgGetParity: "get-parity", MsgGetParityOK: "get-parity-ok",
	MsgEvict: "evict", MsgEvictOK: "evict-ok",
	MsgSetParityBatch: "set-parity-batch", MsgSetParityBatchOK: "set-parity-batch-ok",
	MsgError:      "error",
	MsgDeltaChunk: "delta-chunk", MsgDeltaChunkOK: "delta-chunk-ok",
	MsgReadChunk: "read-chunk", MsgReadChunkOK: "read-chunk-ok",
	MsgInstallChunk: "install-chunk", MsgInstallChunkOK: "install-chunk-ok",
}

// String names the message type.
func (t MsgType) String() string {
	if n, ok := msgNames[t]; ok {
		return n
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Bulk reports whether a frame type carries checkpoint or recovery payload —
// the data plane — as opposed to protocol control. Only the two chunk streams
// qualify: delta chunks pushed to parity peers during a round, and the chunk
// replies every recovery, move and keeper rebuild pulls node-to-node. The
// chaos layer keys its standing slow-node condition off this: a
// "habitually slow" node in the paper's sense has a congested data-plane
// ingest (the disk or NIC absorbing every member's delta stream), while
// small control frames ride an uncongested queue.
func (t MsgType) Bulk() bool {
	return t == MsgDeltaChunk || t == MsgReadChunkOK
}

// Message is one protocol frame.
type Message struct {
	Type    MsgType
	Epoch   uint64
	Group   int32
	Arg     uint64 // small numeric argument (steps, seeds, checksums)
	Trace   uint64 // observability: trace id this RPC belongs to (0 = untraced)
	Span    uint64 // observability: caller's span id (parent for remote work)
	VM      string // subject VM, when applicable
	Text    string // error text or auxiliary string (e.g. JSON config)
	Payload []byte // bulk data: deltas, images

	// PayloadSegs is a send-only scatter list: when non-empty, the segments
	// are framed on the wire after Payload as if they had been concatenated
	// onto it, without being copied into one buffer (WriteFrame hands them to
	// writev). Receivers always see the contiguous form — Decode fills Payload
	// only. The segments are aliased, not copied; they must stay valid and
	// unmodified until the frame is written.
	PayloadSegs net.Buffers
}

// payloadLen is the total payload length as framed: Payload plus every
// scatter segment.
func (m *Message) payloadLen() int {
	n := len(m.Payload)
	for _, s := range m.PayloadSegs {
		n += len(s)
	}
	return n
}

// Fixed-header byte offsets within the encoded body: Type, Epoch, Group and
// Arg, then the trace context, then the VM name's length prefix.
const (
	traceOffset    = 1 + 8 + 4 + 8   // Trace field
	spanOffset     = traceOffset + 8 // Span field
	FixedHeaderLen = spanOffset + 8  // bytes before the VM length prefix
)

// MaxFrame bounds a frame to keep a corrupted length prefix from allocating
// unbounded memory. 256 MiB accommodates any test-scale VM image.
const MaxFrame = 256 << 20

// ErrFrame marks malformed frames.
var ErrFrame = errors.New("wire: malformed frame")

// appendHead appends everything up to and including the payload length —
// the whole body except the payload bytes themselves.
func (m *Message) appendHead(out []byte) []byte {
	out = append(out, byte(m.Type))
	out = binary.LittleEndian.AppendUint64(out, m.Epoch)
	out = binary.LittleEndian.AppendUint32(out, uint32(m.Group))
	out = binary.LittleEndian.AppendUint64(out, m.Arg)
	out = binary.LittleEndian.AppendUint64(out, m.Trace)
	out = binary.LittleEndian.AppendUint64(out, m.Span)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(m.VM)))
	out = append(out, m.VM...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.Text)))
	out = append(out, m.Text...)
	out = binary.LittleEndian.AppendUint32(out, uint32(m.payloadLen()))
	return out
}

// Encode renders the message body (without the stream length prefix).
func (m *Message) Encode() []byte {
	n := FixedHeaderLen + 2 + len(m.VM) + 4 + len(m.Text) + 4 + m.payloadLen()
	out := m.appendHead(make([]byte, 0, n))
	out = append(out, m.Payload...)
	for _, s := range m.PayloadSegs {
		out = append(out, s...)
	}
	return out
}

// Decode parses a message body: ReadFrame's reader run over b, so the head
// is parsed in one place. Payload is a pooled copy the caller owns.
func Decode(b []byte) (*Message, error) {
	m := new(Message)
	if err := readFrame(bytes.NewReader(b), len(b), m); err != nil {
		return nil, err
	}
	return m, nil
}

// FrameObserver is a writer that sees every frame before its first byte is
// written: WriteFrame calls ObserveFrame once per frame with a copy of the
// message and the frame's length on the wire (the 4-byte prefix plus the
// body), and writes nothing when it returns an error. A copy, not the
// pointer, so that a message its caller built on the stack stays there. The
// chaos injector's connections decide their faults here.
type FrameObserver interface {
	ObserveFrame(m Message, frameLen int) error
}

// inlinePayload is the largest payload folded into the header write; bigger
// payloads leave from the caller's own slices so a bulk chunk batch or image
// is never copied just to be framed.
const inlinePayload = 4 << 10

// WriteFrame writes a length-prefixed message to w. The length prefix and all
// header fields are rendered into one pooled buffer, and a payload up to
// inlinePayload rides in it: a control frame is one Write. A larger payload is
// not copied: head, Payload and every PayloadSegs segment go out as one
// net.Buffers, which is a single writev when w is a TCP connection and one
// Write per piece through any other writer — so w should be the connection
// itself, not a buffered writer that would copy the pieces again. The list is
// built in *segs, the writer's own storage that every frame it writes reuses
// (a connection keeps one; nil takes a fresh list for this frame), so a bulk
// frame allocates nothing once the list has grown to its segment count.
func WriteFrame(w io.Writer, m *Message, segs *net.Buffers) error {
	pl := m.payloadLen()
	n := FixedHeaderLen + 2 + len(m.VM) + 4 + len(m.Text) + 4 + pl
	if n > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds max %d", ErrFrame, n, MaxFrame)
	}
	if len(m.VM) >= 1<<16 {
		return fmt.Errorf("%w: VM name of %d bytes overflows its 16-bit length", ErrFrame, len(m.VM))
	}
	if o, ok := w.(FrameObserver); ok {
		if err := o.ObserveFrame(*m, 4+n); err != nil {
			return err
		}
	}
	head := 4 + n - pl
	inline := pl <= inlinePayload
	want := head
	if inline {
		want += pl
	}
	buf := bufpool.Get(want)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = m.appendHead(buf)
	var err error
	if inline {
		buf = append(buf, m.Payload...)
		for _, s := range m.PayloadSegs {
			buf = append(buf, s...)
		}
		_, err = w.Write(buf)
	} else {
		if segs == nil {
			segs = new(net.Buffers)
		}
		// WriteTo consumes the list it is called on, and PayloadSegs may be
		// shared by concurrent sends of one message: the pieces are listed in
		// the writer's storage, whose full length is restored once written.
		out := append((*segs)[:0], buf)
		if len(m.Payload) > 0 {
			out = append(out, m.Payload)
		}
		for _, s := range m.PayloadSegs {
			if len(s) > 0 {
				out = append(out, s)
			}
		}
		*segs = out
		_, err = segs.WriteTo(w)
		*segs = out[:0]
	}
	bufpool.Put(buf)
	return err
}

// headScratch is what a frame head is read through: pooled, because a slice
// handed to an io.Reader escapes, and a pointer boxes for free. A VM name or
// Text too long for it is read into a buffer of its own.
type headScratch [512]byte

var heads = sync.Pool{New: func() any { return new(headScratch) }}

// ReadFrame reads one length-prefixed message from r into m, every byte
// once: the head through a pooled scratch, the payload straight into a
// bufpool.Get buffer of its length. Every field of m is overwritten, so a
// connection decodes each frame into one message it owns: a VM name or Text
// equal to m's current one is kept rather than allocated again. A frame whose
// lengths do not add up fails with ErrFrame before any payload byte is read;
// a stream that ends inside the frame fails with the io error one
// io.ReadFull of the body would give. Either way m is left unspecified.
// Payload passes to m's owner, who bufpool.Puts it; the payload m held
// before is not released.
func ReadFrame(r io.Reader, m *Message) error {
	return readFrame(r, -1, m)
}

// readFrame reads an n-byte frame body from r (n < 0: the length prefix
// first) into m, checking every length against the bytes left before
// reading on.
func readFrame(r io.Reader, n int, m *Message) error {
	s := heads.Get().(*headScratch)
	defer heads.Put(s)
	if n < 0 {
		if _, err := io.ReadFull(r, s[:4]); err != nil {
			return err
		}
		if n = int(binary.LittleEndian.Uint32(s[:])); n > MaxFrame {
			return fmt.Errorf("%w: frame length %d exceeds max %d", ErrFrame, n, MaxFrame)
		}
	}
	if n < FixedHeaderLen+2 {
		return fmt.Errorf("%w: short header (%d bytes)", ErrFrame, n)
	}
	left := n
	read := func(b []byte) error {
		_, err := io.ReadFull(r, b)
		if err == io.EOF && left < n {
			err = io.ErrUnexpectedEOF // the body ran dry after its first byte
		}
		left -= len(b)
		return err
	}
	h := s[:FixedHeaderLen+2]
	// field reads a k-byte string into *dst, unless *dst already holds those
	// bytes, and returns the 4-byte length behind it, past h.
	field := func(k int, next string, dst *string) (int, error) {
		if k < 0 || k > left { // k < 0: a uint32 length wrapped by a 32-bit int
			return 0, fmt.Errorf("%w: truncated field", ErrFrame)
		}
		if k+4 > left {
			return 0, fmt.Errorf("%w: truncated %s length", ErrFrame, next)
		}
		b := s[len(h):]
		if k+4 > len(b) {
			b = make([]byte, k+4)
		}
		if err := read(b[:k+4]); err != nil {
			return 0, err
		}
		if string(b[:k]) != *dst {
			*dst = string(b[:k])
		}
		return int(binary.LittleEndian.Uint32(b[k:])), nil
	}
	if err := read(h); err != nil {
		return err
	}
	m.Type = MsgType(h[0])
	m.Epoch = binary.LittleEndian.Uint64(h[1:])
	m.Group = int32(binary.LittleEndian.Uint32(h[9:]))
	m.Arg = binary.LittleEndian.Uint64(h[13:])
	m.Trace = binary.LittleEndian.Uint64(h[traceOffset:])
	m.Span = binary.LittleEndian.Uint64(h[spanOffset:])
	m.Payload, m.PayloadSegs = nil, nil
	tl, err := field(int(binary.LittleEndian.Uint16(h[FixedHeaderLen:])), "text", &m.VM)
	if err != nil {
		return err
	}
	pl, err := field(tl, "payload", &m.Text)
	if err != nil {
		return err
	}
	if pl != left {
		return fmt.Errorf("%w: payload of %d bytes in the %d left", ErrFrame, pl, left)
	}
	if pl > 0 {
		payload := bufpool.Get(pl)
		if err := read(payload); err != nil {
			bufpool.Put(payload)
			return err
		}
		m.Payload = payload
	}
	return nil
}

// IsDecodeErr reports whether err stems from frame decoding (ErrFrame): the
// bytes on the stream were corrupt or truncated. Transport code uses this to
// classify such failures as connection faults — the stream is garbage and the
// connection must be replaced — rather than caller errors: the request itself
// was fine, the wire mangled it.
func IsDecodeErr(err error) bool { return errors.Is(err, ErrFrame) }

// Errorf builds an error reply.
func Errorf(format string, args ...interface{}) *Message {
	return &Message{Type: MsgError, Text: fmt.Sprintf(format, args...)}
}

// RemoteError is an application-level error reply (MsgError) from the peer.
// The connection that carried it is still healthy: the handler ran and
// answered, it just answered with a failure. Transport code uses the
// distinction to decide whether a connection may be reused.
type RemoteError struct{ Text string }

// Error implements error.
func (e *RemoteError) Error() string { return "wire: remote error: " + e.Text }

// AsError converts an error reply into a Go error (nil for non-errors).
func (m *Message) AsError() error {
	if m.Type != MsgError {
		return nil
	}
	return &RemoteError{Text: m.Text}
}
