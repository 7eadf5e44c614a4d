package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dvdc/internal/parity"
	"dvdc/internal/vm"
)

// newMGroup builds n members plus all m parity keepers of one group.
func newMGroup(t *testing.T, n, m, pages, pageSize int) ([]*Member, []*MKeeper) {
	t.Helper()
	members := make([]*Member, n)
	initial := map[string][]byte{}
	for i := 0; i < n; i++ {
		mach, err := vm.NewMachine(string(rune('A'+i)), pages, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := NewMember(mach)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = mem
		initial[mach.ID()] = mem.CommittedImage()
	}
	keepers := make([]*MKeeper, m)
	for i := range keepers {
		k, err := NewMKeeper(0, i, m, initial)
		if err != nil {
			t.Fatal(err)
		}
		keepers[i] = k
	}
	return members, keepers
}

func mChurnAndCheckpoint(t *testing.T, members []*Member, keepers []*MKeeper, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, mem := range members {
		mach := mem.Machine()
		for w := 0; w < 25; w++ {
			mach.TouchPage(rng.Intn(mach.NumPages()), rng.Uint64())
		}
	}
	if err := groupRound(members, keepers...); err != nil {
		t.Fatal(err)
	}
}

func TestMKeeperDoubleLossReconstruction(t *testing.T) {
	members, keepers := newMGroup(t, 4, 2, 16, 64)
	names := make([]string, len(members))
	for i, mem := range members {
		names[i] = mem.Machine().ID()
	}
	for round := 0; round < 4; round++ {
		mChurnAndCheckpoint(t, members, keepers, int64(round))
	}
	// Every pair of members can be lost and rebuilt from the 2 survivors
	// plus both parity blocks.
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			lost := []string{names[a], names[b]}
			survivors := map[string][]byte{}
			for i, mem := range members {
				if i != a && i != b {
					survivors[names[i]] = mem.CommittedImage()
				}
			}
			blocks := map[int][]byte{0: keepers[0].Parity(), 1: keepers[1].Parity()}
			got, err := ReconstructMembers(2, names, survivors, blocks, lost)
			if err != nil {
				t.Fatalf("lost (%d,%d): %v", a, b, err)
			}
			for _, i := range []int{a, b} {
				if !bytes.Equal(got[names[i]], members[i].CommittedImage()) {
					t.Errorf("lost (%d,%d): member %d mismatch", a, b, i)
				}
			}
		}
	}
}

func TestMKeeperSingleLossWithOneParityBlock(t *testing.T) {
	// Losing one member AND one parity block (same node in an orthogonal
	// layout never happens, but different nodes can die together): the
	// remaining parity block must suffice.
	members, keepers := newMGroup(t, 3, 2, 8, 32)
	names := []string{"A", "B", "C"}
	mChurnAndCheckpoint(t, members, keepers, 7)
	survivors := map[string][]byte{
		"B": members[1].CommittedImage(),
		"C": members[2].CommittedImage(),
	}
	// Only parity block 1 available.
	got, err := ReconstructMembers(2, names, survivors, map[int][]byte{1: keepers[1].Parity()}, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got["A"], members[0].CommittedImage()) {
		t.Error("reconstruction from second parity block failed")
	}
}

func TestMKeeperInsufficientShards(t *testing.T) {
	members, keepers := newMGroup(t, 3, 1, 8, 32)
	names := []string{"A", "B", "C"}
	mChurnAndCheckpoint(t, members, keepers, 8)
	// Two losses with tolerance 1: must fail.
	survivors := map[string][]byte{"C": members[2].CommittedImage()}
	if _, err := ReconstructMembers(1, names, survivors,
		map[int][]byte{0: keepers[0].Parity()}, []string{"A", "B"}); err == nil {
		t.Error("2 losses with 1 parity should fail")
	}
}

func TestMKeeperValidation(t *testing.T) {
	if _, err := NewMKeeper(0, 0, 1, nil); err == nil {
		t.Error("empty members should fail")
	}
	if _, err := NewMKeeper(0, 2, 2, map[string][]byte{"a": {1}}); err == nil {
		t.Error("parity index out of range should fail")
	}
	if _, err := NewMKeeper(0, 0, 1, map[string][]byte{"a": {1}, "b": {1, 2}}); err == nil {
		t.Error("mismatched sizes should fail")
	}
}

// TestMKeeperRejectsBadDeltas: on the GF row of a tolerance-2 group, a fold
// from an unknown member is refused, and a replayed commit is refused without
// landing its folds.
func TestMKeeperRejectsBadDeltas(t *testing.T) {
	members, keepers := newMGroup(t, 2, 2, 8, 32)
	k := keepers[1]
	m := members[0].Machine()
	m.TouchPage(0, 1)
	d, _ := members[0].CaptureDeltaInto(nil)
	if err := k.stage("stranger", 0, make([]byte, 32)); err == nil {
		t.Error("unknown member should fail")
	}
	for round, wantErr := range []bool{false, true} {
		if err := stageDelta(k, members[0], d); err != nil {
			t.Fatal(err)
		}
		if err := k.commit(map[string]uint64{d.VMID: d.Epoch}); (err != nil) != wantErr {
			t.Fatalf("commit %d of epoch %d: %v", round, d.Epoch, err)
		}
		k.Drop()
	}
	want, err := NewMKeeper(0, 1, 2, map[string][]byte{"A": members[0].CommittedImage(), "B": members[1].CommittedImage()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k.Parity(), want.Parity()) {
		t.Error("a refused replay left its folds in the parity block")
	}
}

// groupElements lists every element of a group: its members by name, then
// its parity blocks by index.
func groupElements(members []*Member, m int) []Element {
	var out []Element
	for _, mem := range members {
		out = append(out, Element{VM: mem.Machine().ID()})
	}
	for i := 0; i < m; i++ {
		out = append(out, Element{Parity: i})
	}
	return out
}

// rebuildLost computes the lost elements of a group by the runtime's rebuild
// rule: PlanShards picks k of the other shards, and each shard's committed
// bytes are read once and folded into every output.
func rebuildLost(members []*Member, keepers []*MKeeper, lost []Element) ([][]byte, error) {
	names := make([]string, len(members))
	byName := map[string]*Member{}
	for i, mem := range members {
		names[i] = mem.Machine().ID()
		byName[names[i]] = mem
	}
	shards, err := PlanShards(names, len(keepers), lost, func(Element) bool { return true })
	if err != nil {
		return nil, err
	}
	size := int(members[0].Machine().ImageBytes())
	buf, outs := make([]byte, size), make([][]byte, len(lost))
	for o := range outs {
		outs[o] = make([]byte, size)
	}
	for _, s := range shards {
		if s.VM != "" {
			byName[s.VM].CommittedInto(buf, 0)
		} else {
			keepers[s.Parity].ReadParity(buf, 0)
		}
		for o := range outs {
			if err := parity.MulSliceInto(outs[o], buf, s.Coefs[o]); err != nil {
				return nil, err
			}
		}
	}
	return outs, nil
}

// verifyGroupParity compares every keeper's block with a fresh keeper over
// the members' committed images.
func verifyGroupParity(members []*Member, keepers []*MKeeper) error {
	images := map[string][]byte{}
	for _, mem := range members {
		images[mem.Machine().ID()] = mem.CommittedImage()
	}
	for i, k := range keepers {
		want, err := NewMKeeper(0, i, len(keepers), images)
		if err != nil {
			return err
		}
		if !bytes.Equal(k.Parity(), want.Parity()) {
			return fmt.Errorf("parity[%d] diverges from its members' committed images", i)
		}
	}
	return nil
}

// TestClusterToleranceTwoSurvivesSimultaneousDoubleFailure: in a group of 3
// members with 2 parity blocks, any two elements lost at once are rebuilt
// bit-exact from the other three, at the committed epoch, whatever the
// members wrote since.
func TestClusterToleranceTwoSurvivesSimultaneousDoubleFailure(t *testing.T) {
	members, keepers := newMGroup(t, 3, 2, 8, 64)
	mChurnAndCheckpoint(t, members, keepers, 1)
	mChurnAndCheckpoint(t, members, keepers, 2)
	want := map[Element][]byte{}
	for _, mem := range members {
		want[Element{VM: mem.Machine().ID()}] = mem.CommittedImage()
	}
	for i, k := range keepers {
		want[Element{Parity: i}] = k.Parity()
	}
	rng := rand.New(rand.NewSource(99))
	for _, mem := range members { // uncommitted writes a rebuild must not see
		mem.Machine().TouchPage(rng.Intn(8), rng.Uint64())
	}
	elems := groupElements(members, 2)
	for a := range elems {
		for b := a + 1; b < len(elems); b++ {
			lost := []Element{elems[a], elems[b]}
			outs, err := rebuildLost(members, keepers, lost)
			if err != nil {
				t.Fatalf("lose %v: %v", lost, err)
			}
			for o, e := range lost {
				if !bytes.Equal(outs[o], want[e]) {
					t.Errorf("lose %v: %+v rebuilt wrong", lost, e)
				}
			}
		}
	}
}

// TestClusterToleranceTwoContinuesAfterDoubleFailure: a member and a parity
// block lost together are rebuilt and adopted at the committed epoch
// (NewMemberAt, NewMKeeperFromBlock), the survivors roll back, and the group
// keeps committing rounds with its parity intact.
func TestClusterToleranceTwoContinuesAfterDoubleFailure(t *testing.T) {
	members, keepers := newMGroup(t, 3, 2, 8, 64)
	mChurnAndCheckpoint(t, members, keepers, 1)
	members[1].Machine().TouchPage(3, 7) // rolled back below
	lost := []Element{{VM: members[0].Machine().ID()}, {Parity: 1}}
	outs, err := rebuildLost(members, keepers, lost)
	if err != nil {
		t.Fatal(err)
	}
	epoch := members[1].Epoch()
	names := []string{"A", "B", "C"}
	if members[0], err = NewMemberAt("A", 64, outs[0], epoch); err != nil {
		t.Fatal(err)
	}
	if keepers[1], err = NewMKeeperFromBlock(0, 1, 2, names, outs[1], epoch); err != nil {
		t.Fatal(err)
	}
	for _, mem := range members[1:] {
		mem.Rollback()
	}
	if err := verifyGroupParity(members, keepers); err != nil {
		t.Fatalf("after the rebuild: %v", err)
	}
	for round := 0; round < 3; round++ {
		mChurnAndCheckpoint(t, members, keepers, int64(50+round))
		if err := verifyGroupParity(members, keepers); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestClusterTripleFailureWithToleranceTwoRejected: three elements of a
// group lost at m = 2 leave too few shards, and the rebuild rule refuses.
func TestClusterTripleFailureWithToleranceTwoRejected(t *testing.T) {
	members, keepers := newMGroup(t, 3, 2, 8, 32)
	elems := groupElements(members, 2)
	if _, err := rebuildLost(members, keepers, elems[:3]); err == nil {
		t.Error("a triple loss at tolerance 2 was rebuilt")
	}
}

// Property: random churn/checkpoint sequences keep all parity blocks
// verifiable and double losses recoverable.
func TestQuickMKeeperInvariant(t *testing.T) {
	f := func(seed int64, rounds uint8) bool {
		members, keepers := newMGroup(t, 3, 2, 8, 32)
		rng := rand.New(rand.NewSource(seed))
		for r := 0; r < int(rounds%4)+1; r++ {
			for _, mem := range members {
				m := mem.Machine()
				for w := 0; w < 10; w++ {
					m.TouchPage(rng.Intn(m.NumPages()), rng.Uint64())
				}
			}
			if err := groupRound(members, keepers...); err != nil {
				return false
			}
		}
		if verifyGroupParity(members, keepers) != nil {
			return false
		}
		elems := groupElements(members, 2)
		a := rng.Intn(len(elems))
		b := (a + 1 + rng.Intn(len(elems)-1)) % len(elems)
		lost := []Element{elems[a], elems[b]}
		outs, err := rebuildLost(members, keepers, lost)
		if err != nil {
			return false
		}
		for o, e := range lost {
			want := keepers[e.Parity].Parity()
			if e.VM != "" {
				want = members[e.VM[0]-'A'].CommittedImage()
			}
			if !bytes.Equal(outs[o], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
