package runtime

import (
	"slices"
	"testing"

	"dvdc/internal/obs"
	"dvdc/internal/service"
)

// The coordinator is the service control plane's executor.
var (
	_ service.Executor = (*Coordinator)(nil)
	_ service.Quiescer = (*Coordinator)(nil)
)

// TestCoordinatorExecutesRestores holds the restore rule on an in-process
// Paper12VM cluster, whose probe must dial the in-memory network: a live node
// owes nothing, a killed one owes one recovery and then nothing, a node
// declared dead whose daemon still answers leaves service at once, holds
// rounds off and owes one recovery, and a node outside the layout cannot be
// declared.
func TestCoordinatorExecutesRestores(t *testing.T) {
	cl, err := NewInProcess(paperLayout(t), 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	ctx := obs.SpanContext{}
	round := func() error {
		_, err := cl.ExecuteCheckpoint(ctx, 20)
		return err
	}
	restore := func(nodes ...int) {
		t.Helper()
		if _, err := cl.ExecuteRestore(ctx, nodes); err != nil {
			t.Fatalf("restore %v: %v", nodes, err)
		}
	}
	alive := func(want ...int) {
		t.Helper()
		if got := cl.aliveNodes(); !slices.Equal(got, want) {
			t.Fatalf("alive nodes %v, want %v", got, want)
		}
	}
	if err := round(); err != nil {
		t.Fatal(err)
	}

	restore(1)
	alive(0, 1, 2, 3)
	if plan := cl.LastPlan(); plan != nil {
		t.Fatalf("a restore of live node 1 ran a %d-step plan", len(plan.Steps))
	}

	cl.Kill(3)
	restore(3)
	alive(0, 1, 2)
	first := cl.LastPlan()
	if first == nil {
		t.Fatal("a restore of killed node 3 recovered nothing")
	}
	restore(3)
	if cl.LastPlan() != first {
		t.Fatal("a second restore of node 3 ran another recovery")
	}
	// Node 3 rejoins, so losing node 2 costs every group one element.
	if err := cl.Start(3); err != nil {
		t.Fatal(err)
	}
	if err := cl.Repair(3); err != nil {
		t.Fatal(err)
	}
	if err := round(); err != nil {
		t.Fatalf("round after node 3's repair: %v", err)
	}
	if _, err := cl.Rebalance(); err != nil {
		t.Fatal(err)
	}

	if err := cl.DeclareDead(2); err != nil {
		t.Fatal(err)
	}
	alive(0, 1, 3)
	epoch := cl.Epoch()
	if err := round(); err == nil || cl.Epoch() != epoch {
		t.Fatalf("round with node 2 owing a recovery: err %v, epoch %d -> %d", err, epoch, cl.Epoch())
	}
	restore(2)
	if cl.LastPlan() == first || len(cl.pendingRecovery()) > 0 {
		t.Fatalf("restore of declared node 2 left %v owing a recovery", cl.pendingRecovery())
	}
	if err := round(); err != nil {
		t.Fatalf("round after node 2's recovery: %v", err)
	}
	if err := cl.VerifyParity(); err != nil {
		t.Fatal(err)
	}

	if err := cl.DeclareDead(9); err == nil {
		t.Fatal("DeclareDead(9) accepted a node outside the layout")
	}
	alive(0, 1, 3)
}
