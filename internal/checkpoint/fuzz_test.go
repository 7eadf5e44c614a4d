package checkpoint

import (
	"testing"

	"dvdc/internal/vm"
)

// FuzzApplyTo exercises ApplyTo with arbitrary one-page checkpoints against a
// fixed 4x32 image: a malformed kind, geometry, index or page length must
// error, never panic or write out of bounds.
func FuzzApplyTo(f *testing.F) {
	m, _ := vm.NewMachine("fz", 4, 32)
	m.TouchPage(0, 1)
	fork := Fork(m)
	c, _ := fork.MaterializeIncremental()
	fork.Release()
	f.Add(uint8(c.Kind), uint16(c.NumPages), uint16(c.PageSize), c.Pages[0].Index, c.Pages[0].Data)
	f.Fuzz(func(t *testing.T, kind uint8, numPages, pageSize uint16, index int, data []byte) {
		c := &Checkpoint{Kind: Kind(kind), NumPages: int(numPages), PageSize: int(pageSize),
			Pages: []PageRecord{{Index: index, Data: data}}}
		img := make([]byte, 4*32)
		_ = c.ApplyTo(img) // must not panic
	})
}
