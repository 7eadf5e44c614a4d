// Package checkpoint implements the checkpoint variants the paper builds on
// (Sec. II-B) that E11 measures: full ("normal" in Plank's terms), and
// forked copy-on-write, which materializes an incremental checkpoint of the
// pages dirty at fork time. Compress sizes the compressed-difference variant
// (Plank & Xu) without implementing it.
//
// A Checkpoint is a self-contained record of the pages captured at one
// epoch; ApplyTo replays it onto a materialized image.
package checkpoint

import (
	"bytes"
	"compress/flate"
	"fmt"

	"dvdc/internal/vm"
)

// Kind distinguishes the checkpoint variants.
type Kind int

// Checkpoint kinds.
const (
	Full Kind = iota
	Incremental
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Full:
		return "full"
	case Incremental:
		return "incremental"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// PageRecord is one captured page.
type PageRecord struct {
	Index int
	Data  []byte // raw page content
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
// must cross the network and enter parity.
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

// Compress deflates a buffer at flate.BestSpeed; E11 uses it to size the
// compressed-difference variant's payload.
func Compress(p []byte) ([]byte, error) {
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

// ApplyTo patches a materialized image in place with this checkpoint's
// pages. The geometry is bounded by the image before it is multiplied, so a
// NumPages*PageSize that wraps cannot pass for the image's length.
func (c *Checkpoint) ApplyTo(img []byte) error {
	if c.PageSize <= 0 || c.NumPages < 0 || c.NumPages > len(img)/c.PageSize || c.NumPages*c.PageSize != len(img) {
		return fmt.Errorf("checkpoint: image is %d bytes, want %d pages of %d", len(img), c.NumPages, c.PageSize)
	}
	for _, p := range c.Pages {
		if p.Index < 0 || p.Index >= c.NumPages {
			return fmt.Errorf("checkpoint: page index %d out of range", p.Index)
		}
		if c.Kind != Full && c.Kind != Incremental {
			return fmt.Errorf("checkpoint: unknown kind %v", c.Kind)
		}
		if len(p.Data) != c.PageSize {
			return fmt.Errorf("checkpoint: page %d has %d bytes, want %d", p.Index, len(p.Data), c.PageSize)
		}
		copy(img[p.Index*c.PageSize:(p.Index+1)*c.PageSize], p.Data)
	}
	return nil
}
