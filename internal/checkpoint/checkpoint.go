// Package checkpoint implements the checkpoint variants the paper builds on
// (Sec. II-B): full ("normal" in Plank's terms), incremental (dirty pages
// only), forked copy-on-write, and compressed differences (Plank & Xu).
//
// A Checkpoint is a self-contained record of the pages captured at one
// epoch; a Store materializes any epoch by replaying a base image plus its
// chain of increments, which is exactly what a parity holder needs when it
// reconstructs a failed VM.
package checkpoint

import (
	"bytes"
	"compress/flate"
	"crypto/subtle"
	"fmt"
	"io"
	"sort"

	"dvdc/internal/vm"
)

// Kind distinguishes the checkpoint variants.
type Kind int

// Checkpoint kinds.
const (
	Full Kind = iota
	Incremental
	CompressedDelta
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Full:
		return "full"
	case Incremental:
		return "incremental"
	case CompressedDelta:
		return "compressed-delta"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// PageRecord is one captured page.
type PageRecord struct {
	Index int
	Data  []byte // raw page content, or compressed XOR delta for CompressedDelta
}

// Checkpoint is the captured state of one VM at one epoch.
type Checkpoint struct {
	VMID     string
	Epoch    uint64 // the machine epoch this checkpoint closed
	Kind     Kind
	NumPages int
	PageSize int
	Pages    []PageRecord // sorted by Index
}

// PayloadBytes returns the size of the captured page data: the quantity that
// must cross the network and enter parity. For CompressedDelta checkpoints
// this is the compressed size.
func (c *Checkpoint) PayloadBytes() int64 {
	var n int64
	for _, p := range c.Pages {
		n += int64(len(p.Data))
	}
	return n
}

// CaptureFull snapshots every page of m and opens a new epoch. This is the
// "normal" diskless variant that needs memory for the whole image.
func CaptureFull(m *vm.Machine) *Checkpoint {
	c := &Checkpoint{
		VMID:     m.ID(),
		Epoch:    m.Epoch(),
		Kind:     Full,
		NumPages: m.NumPages(),
		PageSize: m.PageSize(),
		Pages:    make([]PageRecord, m.NumPages()),
	}
	for i := 0; i < m.NumPages(); i++ {
		c.Pages[i] = PageRecord{Index: i, Data: append([]byte(nil), m.Page(i)...)}
	}
	m.BeginEpoch()
	return c
}

// CaptureIncremental snapshots only the pages dirtied since the last epoch
// and opens a new one. The first checkpoint of a machine's life should be a
// CaptureFull so the increment chain has a base.
func CaptureIncremental(m *vm.Machine) *Checkpoint {
	dirty := m.DirtyPages()
	c := &Checkpoint{
		VMID:     m.ID(),
		Epoch:    m.Epoch(),
		Kind:     Incremental,
		NumPages: m.NumPages(),
		PageSize: m.PageSize(),
		Pages:    make([]PageRecord, 0, len(dirty)),
	}
	for _, i := range dirty {
		c.Pages = append(c.Pages, PageRecord{Index: i, Data: append([]byte(nil), m.Page(i)...)})
	}
	m.BeginEpoch()
	return c
}

// CaptureCompressedDelta captures dirty pages as flate-compressed XOR deltas
// against the page contents recorded in base (the previous materialized
// image). Pages whose delta does not compress below the raw page are stored
// raw (marked by a leading 0 byte; compressed deltas lead with 1).
func CaptureCompressedDelta(m *vm.Machine, base []byte) (*Checkpoint, error) {
	if int64(len(base)) != m.ImageBytes() {
		return nil, fmt.Errorf("checkpoint: base image is %d bytes, machine holds %d", len(base), m.ImageBytes())
	}
	dirty := m.DirtyPages()
	ps := m.PageSize()
	c := &Checkpoint{
		VMID:     m.ID(),
		Epoch:    m.Epoch(),
		Kind:     CompressedDelta,
		NumPages: m.NumPages(),
		PageSize: ps,
		Pages:    make([]PageRecord, 0, len(dirty)),
	}
	delta := make([]byte, ps) // scratch: deflate copies what it keeps
	for _, i := range dirty {
		cur := m.Page(i)
		subtle.XORBytes(delta, cur, base[i*ps:(i+1)*ps])
		comp, err := deflate(delta)
		if err != nil {
			return nil, err
		}
		var data []byte
		if len(comp)+1 < ps {
			data = append([]byte{1}, comp...)
		} else {
			data = append([]byte{0}, cur...)
		}
		c.Pages = append(c.Pages, PageRecord{Index: i, Data: data})
	}
	m.BeginEpoch()
	return c, nil
}

// Compress deflates a buffer with the same settings the compressed-delta
// capture uses; measurement tools use it to size hypothetical payloads.
func Compress(p []byte) ([]byte, error) { return deflate(p) }

func deflate(p []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(p); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func inflate(p []byte, want int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(p))
	defer r.Close()
	out := make([]byte, 0, want)
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("checkpoint: inflated %d bytes, want %d", len(out), want)
	}
	return out, nil
}

// ApplyTo patches a materialized image in place with this checkpoint's
// pages. For CompressedDelta checkpoints the image must currently hold the
// base the deltas were computed against.
func (c *Checkpoint) ApplyTo(img []byte) error {
	want := int64(c.NumPages) * int64(c.PageSize)
	if int64(len(img)) != want {
		return fmt.Errorf("checkpoint: image is %d bytes, want %d", len(img), want)
	}
	for _, p := range c.Pages {
		if p.Index < 0 || p.Index >= c.NumPages {
			return fmt.Errorf("checkpoint: page index %d out of range", p.Index)
		}
		dst := img[p.Index*c.PageSize : (p.Index+1)*c.PageSize]
		switch c.Kind {
		case Full, Incremental:
			if len(p.Data) != c.PageSize {
				return fmt.Errorf("checkpoint: page %d has %d bytes, want %d", p.Index, len(p.Data), c.PageSize)
			}
			copy(dst, p.Data)
		case CompressedDelta:
			if len(p.Data) == 0 {
				return fmt.Errorf("checkpoint: page %d has empty delta record", p.Index)
			}
			switch p.Data[0] {
			case 0: // raw page
				if len(p.Data)-1 != c.PageSize {
					return fmt.Errorf("checkpoint: raw page %d has %d bytes, want %d", p.Index, len(p.Data)-1, c.PageSize)
				}
				copy(dst, p.Data[1:])
			case 1: // compressed XOR delta
				delta, err := inflate(p.Data[1:], c.PageSize)
				if err != nil {
					return err
				}
				subtle.XORBytes(dst, dst, delta)
			default:
				return fmt.Errorf("checkpoint: page %d has unknown delta tag %d", p.Index, p.Data[0])
			}
		default:
			return fmt.Errorf("checkpoint: unknown kind %v", c.Kind)
		}
	}
	return nil
}

// sortPages keeps the page list ordered by index; capture functions emit
// sorted lists already, decode paths call this defensively.
func (c *Checkpoint) sortPages() {
	sort.Slice(c.Pages, func(i, j int) bool { return c.Pages[i].Index < c.Pages[j].Index })
}
