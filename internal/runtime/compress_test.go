package runtime

import (
	"testing"

	"dvdc/internal/cluster"
)

func TestClusterWithCompressionEndToEnd(t *testing.T) {
	layout, err := cluster.Paper12VM()
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		n, err := NewNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
		defer n.Close()
	}
	coord, err := NewCoordinator(layout, addrs, 16, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetCompress(true)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Step(60); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	// Wire bytes must be below raw bytes (synthetic stamps compress).
	var raw, wireB int64
	for i := 0; i < layout.Nodes; i++ {
		st, err := coord.NodeStats(i)
		if err != nil {
			t.Fatal(err)
		}
		raw += st.DeltaRawBytes
		wireB += st.DeltaWireBytes
	}
	if raw == 0 || wireB >= raw {
		t.Errorf("compression ineffective: raw=%d wire=%d", raw, wireB)
	}
	// Kill + recover still works with compression enabled.
	nodes[0].Close()
	if _, err := coord.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	after, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	for vmName, want := range committed {
		if after[vmName] != want {
			t.Errorf("VM %q diverged under compression", vmName)
		}
	}
}
