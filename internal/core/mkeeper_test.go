package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"dvdc/internal/cluster"
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
	if err := k.Stage("stranger", 0, make([]byte, 32)); err == nil {
		t.Error("unknown member should fail")
	}
	for round, wantErr := range []bool{false, true} {
		if err := stageDelta(k, members[0], d); err != nil {
			t.Fatal(err)
		}
		if err := k.Commit(map[string]uint64{d.VMID: d.Epoch}); (err != nil) != wantErr {
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

func TestClusterToleranceTwoSurvivesSimultaneousDoubleFailure(t *testing.T) {
	// 7 nodes, groups of 3 with 2 parity blocks: any two nodes may die at
	// once.
	layout, err := cluster.BuildDistributedGroups(7, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 7; a++ {
		for b := a + 1; b < 7; b++ {
			l := layout.Clone()
			c, err := NewCluster(l, 8, 64)
			if err != nil {
				t.Fatal(err)
			}
			churn(t, c, int64(a*10+b), 20)
			if err := c.CheckpointRound(); err != nil {
				t.Fatal(err)
			}
			committed := map[string][]byte{}
			for _, name := range c.VMNames() {
				m, _ := c.Machine(name)
				committed[name] = m.Image()
			}
			churn(t, c, 99, 5) // uncommitted churn
			if _, err := c.FailNodes(a, b); err != nil {
				t.Fatalf("nodes (%d,%d): %v", a, b, err)
			}
			for _, name := range c.VMNames() {
				m, _ := c.Machine(name)
				if !bytes.Equal(m.Image(), committed[name]) {
					t.Errorf("nodes (%d,%d): VM %q not at committed state", a, b, name)
				}
			}
			if err := c.VerifyParity(); err != nil {
				t.Errorf("nodes (%d,%d): %v", a, b, err)
			}
		}
	}
}

func TestClusterToleranceTwoContinuesAfterDoubleFailure(t *testing.T) {
	layout, err := cluster.BuildDistributedGroups(8, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(layout, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, c, 1, 20)
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailNodes(1, 5); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		churn(t, c, int64(50+round), 10)
		if err := c.CheckpointRound(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := c.VerifyParity(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestClusterTripleFailureWithToleranceTwoRejected(t *testing.T) {
	layout, err := cluster.BuildDistributedGroups(7, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(layout, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	// Find a triple that actually overwhelms some group (groups span 5 of 7
	// nodes, so some triples hit a group three times).
	rejected := false
	for a := 0; a < 7 && !rejected; a++ {
		for b := a + 1; b < 7 && !rejected; b++ {
			for cc := b + 1; cc < 7 && !rejected; cc++ {
				if !c.Layout().Survives(a, b, cc) {
					if _, err := c.FailNodes(a, b, cc); err == nil {
						t.Errorf("unsurvivable triple (%d,%d,%d) accepted", a, b, cc)
					}
					rejected = true
				}
			}
		}
	}
	if !rejected {
		t.Skip("no unsurvivable triple in this layout")
	}
}

// Property: random churn/checkpoint sequences keep all parity blocks
// verifiable and double losses recoverable.
func TestQuickMKeeperInvariant(t *testing.T) {
	f := func(seed int64, rounds uint8) bool {
		layout, err := cluster.BuildDistributedGroups(6, 1, 2, 3)
		if err != nil {
			return false
		}
		c, err := NewCluster(layout, 8, 32)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for r := 0; r < int(rounds%4)+1; r++ {
			for _, name := range c.VMNames() {
				m, _ := c.Machine(name)
				for w := 0; w < 10; w++ {
					m.TouchPage(rng.Intn(m.NumPages()), rng.Uint64())
				}
			}
			if err := c.CheckpointRound(); err != nil {
				return false
			}
		}
		if err := c.VerifyParity(); err != nil {
			return false
		}
		a := rng.Intn(6)
		b := (a + 1 + rng.Intn(5)) % 6
		if _, err := c.FailNodes(a, b); err != nil {
			return false
		}
		return c.VerifyParity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
