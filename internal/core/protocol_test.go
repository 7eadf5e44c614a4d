package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"dvdc/internal/checkpoint"
	"dvdc/internal/parity"
	"dvdc/internal/vm"
)

// newGroup builds n members and the parity keeper of their group at tolerance
// 1, where the RS code is the paper's plain XOR.
func newGroup(t *testing.T, n, pages, pageSize int) ([]*Member, *MKeeper) {
	t.Helper()
	members, k, err := buildGroup(n, pages, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return members, k
}

func buildGroup(n, pages, pageSize int) ([]*Member, *MKeeper, error) {
	members := make([]*Member, n)
	initial := map[string][]byte{}
	for i := range members {
		m, err := vm.NewMachine(string(rune('A'+i)), pages, pageSize)
		if err != nil {
			return nil, nil, err
		}
		if members[i], err = NewMember(m); err != nil {
			return nil, nil, err
		}
		initial[m.ID()] = members[i].CommittedImage()
	}
	k, err := NewMKeeper(0, 0, 1, initial)
	return members, k, err
}

// groupRound runs one checkpoint round of a group: every member stages its
// capture, each staged page is folded into every keeper, then the keepers
// commit and the members advance.
func groupRound(members []*Member, keepers ...*MKeeper) error {
	epochs := map[string]uint64{}
	staged := make([]*Delta, len(members))
	for i, mem := range members {
		d, _, err := mem.Stage(false)
		if err != nil {
			return err
		}
		for _, k := range keepers {
			if err := stageDelta(k, mem, d); err != nil {
				return err
			}
		}
		epochs[d.VMID], staged[i] = d.Epoch, d
	}
	for _, k := range keepers {
		if err := k.commit(epochs); err != nil {
			return err
		}
	}
	for i, mem := range members {
		if err := mem.Advance(staged[i].Epoch); err != nil {
			return err
		}
	}
	return nil
}

// stageDelta folds every page of a staged or captured delta into k: a page's
// captured bytes when it has them, else the member's rendering of it.
func stageDelta(k *MKeeper, mem *Member, d *Delta) error {
	ps := mem.Machine().PageSize()
	pages := d.Pages
	if pages == nil { // a staged capture: its runs
		for _, i := range stagedPages(d) {
			pages = append(pages, checkpoint.PageRecord{Index: i})
		}
	}
	for _, p := range pages {
		data := p.Data
		if data == nil {
			data = make([]byte, ps)
			mem.deltaInto(data, p.Index*ps)
		}
		if err := k.stage(d.VMID, p.Index*ps, data); err != nil {
			return err
		}
	}
	return nil
}

func runAndCheckpoint(t *testing.T, members []*Member, k *MKeeper, seed int64, writes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, mem := range members {
		m := mem.Machine()
		for i := 0; i < writes; i++ {
			m.TouchPage(rng.Intn(m.NumPages()), rng.Uint64())
		}
	}
	if err := groupRound(members, k); err != nil {
		t.Fatal(err)
	}
}

// reconstructOne rebuilds member lost of a tolerance-1 group from the other
// members' committed images and the keeper's parity block.
func reconstructOne(members []*Member, k *MKeeper, lost string, survivors map[string][]byte) ([]byte, error) {
	names := make([]string, len(members))
	for i, mem := range members {
		names[i] = mem.Machine().ID()
	}
	got, err := ReconstructMembers(1, names, survivors, map[int][]byte{0: k.Parity()}, []string{lost})
	return got[lost], err
}

func TestReconstructAfterCheckpointRounds(t *testing.T) {
	members, k := newGroup(t, 3, 32, 64)
	for round := 0; round < 5; round++ {
		runAndCheckpoint(t, members, k, int64(round), 20)
	}
	// At tolerance 1 the keeper's block is the XOR of the committed images.
	images := make([][]byte, len(members))
	for i, mem := range members {
		images[i] = mem.CommittedImage()
	}
	if want, err := parity.XOR(images...); err != nil || !bytes.Equal(k.Parity(), want) {
		t.Fatalf("parity after 5 rounds is not the XOR of the committed images (%v)", err)
	}
	for lost := 0; lost < 3; lost++ {
		survivors := map[string][]byte{}
		for i, mem := range members {
			if i != lost {
				survivors[mem.Machine().ID()] = mem.CommittedImage()
			}
		}
		img, err := reconstructOne(members, k, members[lost].Machine().ID(), survivors)
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
	d, err := members[0].CaptureDeltaInto(nil)
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

// TestKeeperRejectsOutOfOrderDeltas: a keeper commits a member's folds only at
// the epoch after the one it holds, so a skipped or replayed epoch is refused;
// the refused round drops, and the in-order ones land the XOR of the images.
func TestKeeperRejectsOutOfOrderDeltas(t *testing.T) {
	members, k := newGroup(t, 2, 8, 32)
	m := members[0].Machine()
	m.TouchPage(0, 1)
	d1, _ := members[0].CaptureDeltaInto(nil)
	m.TouchPage(1, 2)
	d2, _ := members[0].CaptureDeltaInto(nil)
	commit := func(d *Delta) error {
		t.Helper()
		if err := stageDelta(k, members[0], d); err != nil {
			t.Fatal(err)
		}
		err := k.commit(map[string]uint64{d.VMID: d.Epoch})
		if err != nil {
			k.Drop()
		}
		return err
	}
	if err := commit(d2); err == nil {
		t.Error("skipping an epoch should fail")
	}
	if err := commit(d1); err != nil {
		t.Fatal(err)
	}
	if err := commit(d1); err == nil {
		t.Error("replaying an epoch should fail")
	}
	if err := commit(d2); err != nil {
		t.Fatal(err)
	}
	if want, _ := parity.XOR(members[0].CommittedImage(), members[1].CommittedImage()); !bytes.Equal(k.Parity(), want) {
		t.Error("refused commits left their folds in the parity block")
	}
}

func TestKeeperRejectsUnknownMember(t *testing.T) {
	members, k := newGroup(t, 2, 8, 32)
	if err := k.stage("stranger", 0, []byte{1}); err == nil {
		t.Error("a fold from an unknown member should fail")
	}
	if err := k.commit(map[string]uint64{"stranger": 1}); err == nil {
		t.Error("a commit for an unknown member should fail")
	}
	survivors := map[string][]byte{}
	for _, mem := range members {
		survivors[mem.Machine().ID()] = mem.CommittedImage()
	}
	if img, err := reconstructOne(members, k, "stranger", survivors); err == nil && img != nil {
		t.Error("reconstructing an unknown member should yield no image")
	}
}

func TestReconstructMissingSurvivorFails(t *testing.T) {
	members, k := newGroup(t, 3, 8, 32)
	survivors := map[string][]byte{
		members[1].Machine().ID(): members[1].CommittedImage(),
		// member 2 missing
	}
	if _, err := reconstructOne(members, k, members[0].Machine().ID(), survivors); err == nil {
		t.Error("missing survivor should fail")
	}
}

// TestNewKeeperValidation: a tolerance-1 keeper needs members of one image
// size, each named once, and has parity index 0 only.
func TestNewKeeperValidation(t *testing.T) {
	if _, err := NewMKeeper(0, 0, 1, nil); err == nil {
		t.Error("empty member set should fail")
	}
	if _, err := NewMKeeper(0, 0, 1, map[string][]byte{"a": make([]byte, 4), "b": make([]byte, 8)}); err == nil {
		t.Error("mismatched image sizes should fail")
	}
	if _, err := NewMKeeper(0, 1, 1, map[string][]byte{"a": make([]byte, 4)}); err == nil {
		t.Error("a second parity block at tolerance 1 should fail")
	}
	if _, err := NewMKeeperFromBlock(0, 0, 1, []string{"a", "a"}, make([]byte, 4), 0); err == nil {
		t.Error("a member named twice should fail")
	}
}

// Property: after arbitrary interleaved writes and checkpoint rounds, any
// single member reconstructs exactly.
func TestQuickProtocolReconstruction(t *testing.T) {
	f := func(seed int64, rounds, writes uint8) bool {
		members, k, err := buildGroup(3, 16, 32)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for r := 0; r < int(rounds%5)+1; r++ {
			for _, mem := range members {
				m := mem.Machine()
				for w := 0; w < int(writes%30); w++ {
					m.TouchPage(rng.Intn(m.NumPages()), rng.Uint64())
				}
			}
			if err := groupRound(members, k); err != nil {
				return false
			}
		}
		lost := rng.Intn(len(members))
		survivors := map[string][]byte{}
		for i, mem := range members {
			if i != lost {
				survivors[mem.Machine().ID()] = mem.CommittedImage()
			}
		}
		img, err := reconstructOne(members, k, members[lost].Machine().ID(), survivors)
		if err != nil {
			return false
		}
		return bytes.Equal(img, members[lost].CommittedImage())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
