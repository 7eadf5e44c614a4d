package runtime

import (
	"testing"

	"dvdc/internal/wire"
)

// TestExplicitPrepareAbortCycle drives the two-phase protocol by hand:
// prepare captures deltas and ships them; abort must undo the captures so
// the next round re-ships the same pages and commits the same state as if
// the aborted round had never happened.
func TestExplicitPrepareAbortCycle(t *testing.T) {
	coord, nodes := testCluster(t, paperLayout(t))
	if err := coord.Step(40); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Step(25); err != nil {
		t.Fatal(err)
	}

	// Manual prepare on every node, then abort everywhere.
	for i, n := range nodes {
		resp, err := n.handle(&wire.Message{Type: wire.MsgPrepare, Epoch: coord.Epoch() + 1})
		if err != nil {
			t.Fatalf("prepare node %d: %v", i, err)
		}
		if resp.Type != wire.MsgPrepareOK {
			t.Fatalf("node %d: %v", i, resp.Type)
		}
	}
	for i, n := range nodes {
		if _, err := n.handle(&wire.Message{Type: wire.MsgAbort, Epoch: coord.Epoch() + 1}); err != nil {
			t.Fatalf("abort node %d: %v", i, err)
		}
	}
	// After the abort the committed state must equal the last commit.
	mid, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	for vmName, want := range base {
		if mid[vmName] != want {
			t.Errorf("VM %q committed state changed by aborted round", vmName)
		}
	}
	// A real checkpoint must now succeed and include the un-done dirt.
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for vmName, want := range base {
		if after[vmName] != want {
			changed++
		}
	}
	if changed == 0 {
		t.Error("post-abort checkpoint committed nothing despite dirty VMs")
	}
	// Parity must still be consistent: kill a node and verify recovery.
	nodes[0].Close()
	if _, err := coord.RecoverNodes(0); err != nil {
		t.Fatal(err)
	}
	final, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	for vmName, want := range after {
		if final[vmName] != want {
			t.Errorf("VM %q diverged after abort+commit+recovery", vmName)
		}
	}
}

// TestDoublePrepareRejected ensures a node refuses to stage twice.
func TestDoublePrepareRejected(t *testing.T) {
	_, nodes := testCluster(t, paperLayout(t))
	if _, err := nodes[0].handle(&wire.Message{Type: wire.MsgPrepare, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].handle(&wire.Message{Type: wire.MsgPrepare, Epoch: 2}); err == nil {
		t.Error("second prepare without commit/abort should fail")
	}
}

// TestUnknownMessageRejected covers the handler's default branch.
func TestUnknownMessageRejected(t *testing.T) {
	_, nodes := testCluster(t, paperLayout(t))
	if _, err := nodes[0].handle(&wire.Message{Type: wire.MsgType(250)}); err == nil {
		t.Error("unknown message should fail")
	}
}
