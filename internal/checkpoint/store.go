package checkpoint

import (
	"fmt"
)

// Store materializes checkpoint chains for one VM: a full base checkpoint
// followed by increments, each checked to belong to the VM, match its
// geometry and carry the next epoch.
type Store struct {
	vmID     string
	numPages int
	pageSize int
	image    []byte // latest materialized image
	epoch    uint64 // epoch of the latest applied checkpoint
}

// NewStore creates a store from an initial full checkpoint.
func NewStore(base *Checkpoint) (*Store, error) {
	if base.Kind != Full {
		return nil, fmt.Errorf("checkpoint: store base must be a full checkpoint, got %v", base.Kind)
	}
	s := &Store{
		vmID:     base.VMID,
		numPages: base.NumPages,
		pageSize: base.PageSize,
		image:    make([]byte, int64(base.NumPages)*int64(base.PageSize)),
	}
	if err := base.ApplyTo(s.image); err != nil {
		return nil, err
	}
	s.epoch = base.Epoch
	return s, nil
}

// Apply advances the store with the next checkpoint in the chain. The
// checkpoint must belong to the same VM, have the same geometry, and carry
// the next epoch.
func (s *Store) Apply(c *Checkpoint) error {
	if c.VMID != s.vmID {
		return fmt.Errorf("checkpoint: store for %q got checkpoint for %q", s.vmID, c.VMID)
	}
	if c.NumPages != s.numPages || c.PageSize != s.pageSize {
		return fmt.Errorf("checkpoint: geometry mismatch: store %dx%d, checkpoint %dx%d",
			s.numPages, s.pageSize, c.NumPages, c.PageSize)
	}
	if c.Epoch != s.epoch+1 {
		return fmt.Errorf("checkpoint: out-of-order epoch %d after %d", c.Epoch, s.epoch)
	}
	if err := c.ApplyTo(s.image); err != nil {
		return err
	}
	s.epoch = c.Epoch
	return nil
}
