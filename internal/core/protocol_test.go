package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"dvdc/internal/vm"
)

func newGroup(t *testing.T, n, pages, pageSize int) ([]*Member, *Keeper) {
	t.Helper()
	members := make([]*Member, n)
	initial := map[string][]byte{}
	for i := 0; i < n; i++ {
		m, err := vm.NewMachine(string(rune('A'+i)), pages, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := NewMember(m)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = mem
		initial[m.ID()] = mem.CommittedImage()
	}
	k, err := NewKeeper(0, initial)
	if err != nil {
		t.Fatal(err)
	}
	return members, k
}

func runAndCheckpoint(t *testing.T, members []*Member, k *Keeper, seed int64, writes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, mem := range members {
		m := mem.Machine()
		for i := 0; i < writes; i++ {
			m.TouchPage(rng.Intn(m.NumPages()), rng.Uint64())
		}
		d, err := mem.CaptureDelta()
		if err != nil {
			t.Fatal(err)
		}
		if err := k.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReconstructAfterCheckpointRounds(t *testing.T) {
	members, k := newGroup(t, 3, 32, 64)
	for round := 0; round < 5; round++ {
		runAndCheckpoint(t, members, k, int64(round), 20)
	}
	for lost := 0; lost < 3; lost++ {
		survivors := map[string][]byte{}
		for i, mem := range members {
			if i != lost {
				survivors[mem.Machine().ID()] = mem.CommittedImage()
			}
		}
		img, err := k.Reconstruct(members[lost].Machine().ID(), survivors)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, members[lost].CommittedImage()) {
			t.Errorf("lost member %d: reconstruction differs from committed image", lost)
		}
	}
}

func TestDeltaOnlyCoversDirtyPages(t *testing.T) {
	members, _ := newGroup(t, 2, 16, 32)
	m := members[0].Machine()
	m.TouchPage(5, 1)
	d, err := members[0].CaptureDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Pages) != 1 || d.Pages[0].Index != 5 {
		t.Fatalf("delta pages: %+v", d.Pages)
	}
	if d.PayloadBytes() != 32 {
		t.Errorf("payload %d, want 32", d.PayloadBytes())
	}
}

func TestRollbackRestoresCommittedState(t *testing.T) {
	members, k := newGroup(t, 2, 16, 32)
	runAndCheckpoint(t, members, k, 1, 10)
	committed := members[0].CommittedImage()
	// Dirty the machine beyond the checkpoint, then roll back.
	members[0].Machine().TouchPage(0, 999)
	members[0].Machine().TouchPage(7, 998)
	members[0].Rollback()
	if !bytes.Equal(members[0].Machine().Image(), committed) {
		t.Error("rollback did not restore the committed image")
	}
}

func TestKeeperRejectsOutOfOrderDeltas(t *testing.T) {
	members, k := newGroup(t, 2, 8, 32)
	m := members[0].Machine()
	m.TouchPage(0, 1)
	d1, _ := members[0].CaptureDelta()
	m.TouchPage(1, 2)
	d2, _ := members[0].CaptureDelta()
	if err := k.ApplyDelta(d2); err == nil {
		t.Error("skipping an epoch should fail")
	}
	if err := k.ApplyDelta(d1); err != nil {
		t.Fatal(err)
	}
	if err := k.ApplyDelta(d1); err == nil {
		t.Error("replaying an epoch should fail")
	}
	if err := k.ApplyDelta(d2); err != nil {
		t.Fatal(err)
	}
}

func TestKeeperRejectsUnknownMember(t *testing.T) {
	_, k := newGroup(t, 2, 8, 32)
	if err := k.ApplyDelta(&Delta{VMID: "stranger", Epoch: 1}); err == nil {
		t.Error("unknown member should fail")
	}
	if _, err := k.Reconstruct("stranger", nil); err == nil {
		t.Error("reconstructing unknown member should fail")
	}
}

func TestReconstructMissingSurvivorFails(t *testing.T) {
	members, k := newGroup(t, 3, 8, 32)
	survivors := map[string][]byte{
		members[1].Machine().ID(): members[1].CommittedImage(),
		// member 2 missing
	}
	if _, err := k.Reconstruct(members[0].Machine().ID(), survivors); err == nil {
		t.Error("missing survivor should fail")
	}
}

func TestRestoreImageResetsCommitted(t *testing.T) {
	members, _ := newGroup(t, 1, 8, 32)
	img := make([]byte, 8*32)
	for i := range img {
		img[i] = byte(i)
	}
	if err := members[0].RestoreImage(img, 7); err != nil {
		t.Fatal(err)
	}
	if members[0].Epoch() != 7 {
		t.Errorf("epoch = %d, want 7", members[0].Epoch())
	}
	if !bytes.Equal(members[0].Machine().Image(), img) {
		t.Error("machine not restored")
	}
	if !bytes.Equal(members[0].CommittedImage(), img) {
		t.Error("committed image not updated")
	}
}

func TestNewKeeperValidation(t *testing.T) {
	if _, err := NewKeeper(0, nil); err == nil {
		t.Error("empty member set should fail")
	}
	if _, err := NewKeeper(0, map[string][]byte{"a": make([]byte, 4), "b": make([]byte, 8)}); err == nil {
		t.Error("mismatched image sizes should fail")
	}
}

// Property: after arbitrary interleaved writes and checkpoint rounds, any
// single member reconstructs exactly.
func TestQuickProtocolReconstruction(t *testing.T) {
	f := func(seed int64, rounds, writes uint8) bool {
		members, k := quickGroup()
		if members == nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for r := 0; r < int(rounds%5)+1; r++ {
			for _, mem := range members {
				m := mem.Machine()
				for w := 0; w < int(writes%30); w++ {
					m.TouchPage(rng.Intn(m.NumPages()), rng.Uint64())
				}
				d, err := mem.CaptureDelta()
				if err != nil {
					return false
				}
				if err := k.ApplyDelta(d); err != nil {
					return false
				}
			}
		}
		lost := rng.Intn(len(members))
		survivors := map[string][]byte{}
		for i, mem := range members {
			if i != lost {
				survivors[mem.Machine().ID()] = mem.CommittedImage()
			}
		}
		img, err := k.Reconstruct(members[lost].Machine().ID(), survivors)
		if err != nil {
			return false
		}
		return bytes.Equal(img, members[lost].CommittedImage())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func quickGroup() ([]*Member, *Keeper) {
	members := make([]*Member, 3)
	initial := map[string][]byte{}
	for i := range members {
		m, err := vm.NewMachine(string(rune('A'+i)), 16, 32)
		if err != nil {
			return nil, nil
		}
		mem, err := NewMember(m)
		if err != nil {
			return nil, nil
		}
		members[i] = mem
		initial[m.ID()] = mem.CommittedImage()
	}
	k, err := NewKeeper(0, initial)
	if err != nil {
		return nil, nil
	}
	return members, k
}
