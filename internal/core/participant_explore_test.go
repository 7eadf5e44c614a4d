package core

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"dvdc/internal/vm"
	"dvdc/internal/wire"
)

// The participant explorer runs one group's checkpoint round through the
// participant rules (Member and MKeeper) in every delivery order, breadth
// first, deduplicated on a hash of the keepers' state and the coordinator's
// progress. The coordinator prepares attempt 1, may abort it (a timeout), lets
// the guests write, prepares attempt 2 and commits; or commits attempt 1 once
// every batch of it was acknowledged. Each batch is one chunk of one member's
// delta to one keeper. Beside that round, up to exBudget extra messages arrive
// in any order: a batch again (a transport re-delivery), a batch of the
// aborted attempt after the abort or of a committed round after its commit, a
// batch naming a VM outside the group, and a commit that jumps ahead of
// undelivered batches (a buggy coordinator the real one never is).
//
// After every delivered message:
//   - a keeper whose epochs equal every member's holds the parity NewMKeeper
//     computes from the members' committed images;
//   - no batch of the live attempt of a well-behaved coordinator is refused;
//   - a commit issued once every live batch was acknowledged succeeds;
//   - a refused call changes nothing.
//
// The first violation fails the test with the shortest trace that reaches it.

// exBudget is how many extra messages one trace may carry.
const exBudget = 3

// Coordinator progress: one member state per step of the script.
const (
	exIdle      = iota // guests wrote; nothing prepared
	exPrepared1        // attempt 1 staged and its batches in flight
	exCommitted1
	exAborted   // attempt 1 aborted: the floor is 1
	exWritten   // the guests wrote again
	exPrepared2 // attempt 2 staged and its batches in flight
	exCommitted2
	exSteps
)

// exBatch is one chunk of one member's delta on its way to one keeper.
type exBatch struct {
	vm      string
	keeper  int
	attempt uint64
	chunk   wire.Chunk
}

func (b *exBatch) String() string {
	return fmt.Sprintf("batch a%d %s#%d->k%d", b.attempt, b.vm, b.chunk.Index, b.keeper)
}

// exRound is what the members do in each step, worked out once: their
// epoch, the parity each keeper must hold at those epochs, and the batches
// each prepare rendered.
type exRound struct {
	epoch   [exSteps]uint64
	parity  [exSteps][][]byte
	batches []exBatch // attempt 1's, then attempt 2's
	size    int
}

// newExRound replays the members' side of the script, once down each branch:
// attempt 1 committed, and attempt 1 aborted and retried. The guests' second
// write touches the same pages as the first, so the retry's streams have the
// shape of the aborted attempt's: only the attempt tells them apart.
func newExRound(t *testing.T, members, tolerance int) *exRound {
	const pages, ps = 3, 4
	r := &exRound{size: pages * ps}
	var mems []*Member
	write := func(salt byte) {
		for i, mem := range mems {
			dirty := []int{1}
			if i == 0 {
				dirty = []int{0, 2} // two chunks: a stream can be half delivered
			}
			for _, p := range dirty {
				if err := mem.Machine().WritePage(p, bytes.Repeat([]byte{salt + byte(16*i+p)}, ps)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	record := func(step int) {
		images := map[string][]byte{}
		for _, mem := range mems {
			images[mem.Machine().ID()] = mem.CommittedImage()
			r.epoch[step] = mem.Epoch()
		}
		for j := 0; j < tolerance; j++ {
			k, err := NewMKeeper(0, j, tolerance, images)
			if err != nil {
				t.Fatal(err)
			}
			r.parity[step] = append(r.parity[step], k.Parity())
		}
	}
	prepare := func(attempt uint64) {
		for _, mem := range mems {
			d, _, err := mem.Stage(false)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range collectChunks(d, ps, r.size, ps) {
				c.Data = make([]byte, c.RawLen)
				if err := mem.DeltaInto(d, c.Data, int(c.Offset)); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < tolerance; j++ {
					r.batches = append(r.batches, exBatch{vm: d.VMID, keeper: j, attempt: attempt, chunk: c})
				}
			}
		}
	}
	commit := func() {
		for _, mem := range mems {
			if err := mem.Advance(1); err != nil {
				t.Fatalf("a member refused the commit of its staged capture: %v", err)
			}
		}
	}
	for _, abort := range []bool{false, true} {
		mems = make([]*Member, members)
		for i := range mems {
			m, err := vm.NewMachine(fmt.Sprintf("vm%d", i), pages, ps)
			if err != nil {
				t.Fatal(err)
			}
			if mems[i], err = NewMember(m); err != nil {
				t.Fatal(err)
			}
		}
		write(1)
		if !abort { // the batches are the same down both branches: keep one set
			for _, mem := range mems {
				if _, _, err := mem.Stage(false); err != nil {
					t.Fatal(err)
				}
			}
			commit()
			record(exCommitted1)
			continue
		}
		record(exIdle)
		prepare(1)
		record(exPrepared1)
		for _, mem := range mems {
			mem.Unstage()
		}
		record(exAborted)
		write(0x80)
		record(exWritten)
		prepare(2)
		record(exPrepared2)
		commit()
		record(exCommitted2)
	}
	return r
}

// exState is one node of the search: the coordinator's step, the keepers,
// which live batches were acknowledged, and the extras spent.
type exState struct {
	step    int
	keepers []*MKeeper
	acked   []bool
	extras  int
	early   bool // a commit jumped ahead of undelivered batches
	ghost   bool // the batch from outside the group was sent
	parent  int
	label   string
}

func (s *exState) clone() *exState {
	c := *s
	c.keepers = make([]*MKeeper, len(s.keepers))
	for j, k := range s.keepers {
		c.keepers[j] = k.exClone()
	}
	c.acked = slices.Clone(s.acked)
	return &c
}

// exClone copies a keeper's state; the coder and member index are shared,
// since nothing writes them.
func (k *MKeeper) exClone() *MKeeper {
	c := *k
	c.epochs = maps.Clone(k.epochs)
	c.pages, c.staged = make([][]byte, len(k.pages)), make([][]byte, len(k.staged))
	for i := range k.pages {
		c.pages[i] = bytes.Clone(k.pages[i])
		if k.staged[i] != nil {
			c.staged[i] = bytes.Clone(k.staged[i])
		}
	}
	c.stagedIdx, c.free = slices.Clone(k.stagedIdx), nil
	c.streams = make(map[string]*stream, len(k.streams))
	for id, st := range k.streams {
		s := *st
		s.seen = slices.Clone(st.seen)
		c.streams[id] = &s
	}
	return &c
}

// exKey is everything about a keeper a later message can observe.
func (k *MKeeper) exKey() string {
	var b strings.Builder
	b.Write(k.Parity())
	for i, p := range k.staged {
		if p != nil {
			fmt.Fprintf(&b, "|s%d:%x", i, p)
		}
	}
	ids := make([]string, 0, len(k.streams))
	for id := range k.streams {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		st := k.streams[id]
		fmt.Fprintf(&b, "|%s:%d/%d/%d/%v", id, st.epoch, st.attempt, st.got, st.seen)
	}
	for _, id := range k.members {
		fmt.Fprintf(&b, "|e%d", k.epochs[id])
	}
	return b.String()
}

func (s *exState) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%v/%d/%v/%v", s.step, s.acked, s.extras, s.early, s.ghost)
	for _, k := range s.keepers {
		b.WriteString("#" + k.exKey())
	}
	return b.String()
}

// live reports whether batch b belongs to the attempt in flight.
func (s *exState) live(b *exBatch) bool {
	return (s.step == exPrepared1 && b.attempt == 1) || (s.step == exPrepared2 && b.attempt == 2)
}

// exMove is one message the search can deliver from a state.
type exMove struct {
	label string
	extra bool
	apply func(s *exState) error // a violated invariant, or nil
}

func TestParticipantExplorer(t *testing.T) {
	for _, tc := range []struct{ members, tolerance int }{{3, 1}, {2, 1}, {2, 2}, {3, 2}} {
		t.Run(fmt.Sprintf("members=%d/m=%d", tc.members, tc.tolerance), func(t *testing.T) {
			exploreParticipant(t, tc.members, tc.tolerance)
		})
	}
}

func exploreParticipant(t *testing.T, members, tolerance int) {
	start := time.Now()
	r := newExRound(t, members, tolerance)
	root := &exState{step: exIdle, acked: make([]bool, len(r.batches)), parent: -1}
	zero := map[string][]byte{}
	for i := 0; i < members; i++ {
		zero[fmt.Sprintf("vm%d", i)] = make([]byte, r.size)
	}
	for j := 0; j < tolerance; j++ {
		k, err := NewMKeeper(0, j, tolerance, zero)
		if err != nil {
			t.Fatal(err)
		}
		root.keepers = append(root.keepers, k)
	}
	ghost := wire.Chunk{Total: uint64(r.size), Count: 1}

	// fold delivers one chunk: a refusal must change nothing, and a chunk the
	// keeper must take must not be refused at all.
	fold := func(s *exState, j int, id string, attempt uint64, c *wire.Chunk, mustTake bool) error {
		var floor uint64
		if s.step >= exAborted {
			floor = 1
		}
		k := s.keepers[j]
		before := k.exKey()
		_, err := k.Fold(id, 1, attempt, floor, c)
		switch {
		case err != nil && k.exKey() != before:
			return fmt.Errorf("a refused fold changed keeper %d: %v", j, err)
		case err != nil && mustTake:
			return fmt.Errorf("keeper %d refused a live batch of a well-behaved coordinator: %v", j, err)
		}
		return nil
	}
	commit := func(s *exState, wellBehaved bool) error {
		for j, k := range s.keepers {
			before := k.exKey()
			err := k.Commit(1)
			if err != nil && k.exKey() != before {
				return fmt.Errorf("a refused commit changed keeper %d: %v", j, err)
			}
			if err != nil && wellBehaved {
				return fmt.Errorf("keeper %d refused a commit issued after every batch was acknowledged: %v", j, err)
			}
		}
		s.step++ // prepared -> committed: the members advance
		return nil
	}
	moves := func(s *exState) []exMove {
		var out []exMove
		for bi := range r.batches {
			b := &r.batches[bi]
			switch {
			case s.step == exIdle || b.attempt == 2 && s.step < exPrepared2:
			case s.live(b) && !s.acked[bi]:
				out = append(out, exMove{b.String(), false, func(s *exState) error {
					s.acked[bi] = true
					return fold(s, b.keeper, b.vm, b.attempt, &b.chunk, true)
				}})
			default:
				label := b.String() + " (stale)"
				if s.live(b) {
					label = b.String() + " again"
				}
				out = append(out, exMove{label, true, func(s *exState) error {
					return fold(s, b.keeper, b.vm, b.attempt, &b.chunk, false)
				}})
			}
		}
		if !s.ghost {
			out = append(out, exMove{"batch a1 from outside the group->k0", true, func(s *exState) error {
				s.ghost = true
				return fold(s, 0, "ghost", 1, &ghost, false)
			}})
		}
		switch s.step {
		case exIdle, exAborted, exWritten:
			label := map[int]string{exIdle: "prepare a1", exAborted: "guest write", exWritten: "prepare a2"}[s.step]
			out = append(out, exMove{label, false, func(s *exState) error { s.step++; return nil }})
		case exPrepared1, exPrepared2:
			all := true
			for bi := range r.batches {
				all = all && (!s.live(&r.batches[bi]) || s.acked[bi])
			}
			if all {
				out = append(out, exMove{"commit", false, func(s *exState) error { return commit(s, true) }})
			} else if !s.early {
				out = append(out, exMove{"commit ahead of its batches", true, func(s *exState) error {
					s.early = true
					return commit(s, false)
				}})
			}
			if s.step == exPrepared1 {
				out = append(out, exMove{"abort a1", false, func(s *exState) error {
					for _, k := range s.keepers {
						k.Drop()
					}
					clear(s.acked)
					s.step = exAborted
					return nil
				}})
			}
		}
		return out
	}
	// parityHolds checks every keeper whose epochs are the members'.
	parityHolds := func(s *exState) error {
		for j, k := range s.keepers {
			if slices.ContainsFunc(k.members, func(id string) bool { return k.epochs[id] != r.epoch[s.step] }) {
				continue
			}
			if !bytes.Equal(k.Parity(), r.parity[s.step][j]) {
				return fmt.Errorf("keeper %d at epoch %d holds parity %x, the members' committed images give %x",
					j, r.epoch[s.step], k.Parity(), r.parity[s.step][j])
			}
		}
		return nil
	}

	states := []*exState{root}
	seen := map[string]bool{root.key(): true}
	trace := func(i int, last string) string {
		steps := []string{last}
		for ; i > 0; i = states[i].parent {
			steps = append(steps, states[i].label)
		}
		slices.Reverse(steps)
		return strings.Join(steps, "\n\t")
	}
	for i := 0; i < len(states); i++ {
		for _, mv := range moves(states[i]) {
			if mv.extra && states[i].extras == exBudget {
				continue
			}
			next := states[i].clone()
			if mv.extra {
				next.extras++
			}
			next.parent, next.label = i, mv.label
			err := mv.apply(next)
			if err == nil {
				err = parityHolds(next)
			}
			if err != nil {
				t.Fatalf("after %d states: %v\nshortest trace:\n\t%s", len(states), err, trace(i, mv.label))
			}
			if k := next.key(); !seen[k] {
				seen[k] = true
				states = append(states, next.clone()) // a compact copy: staged pages at their length
			}
		}
		states[i].keepers, states[i].acked = nil, nil // only the trace needs it now
	}
	t.Logf("%d members, m = %d, %d batches, up to %d extra messages: %d states in %v",
		members, tolerance, len(r.batches), exBudget, len(states), time.Since(start).Round(time.Millisecond))
}
