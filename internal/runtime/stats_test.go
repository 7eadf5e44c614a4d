package runtime

import (
	"testing"

	"dvdc/internal/cluster"
)

// TestShipCountsRollUp holds the round record to one count per prepare: on
// fault-free seeded clusters the ShipCounts summed over every round's
// RoundStats equal those summed over every node's NodeStats, each round's raw
// delta bytes are its shipped dirty pages once per parity block, under dedup
// every dirty page is a hit or a miss, and the keepers fold every chunk the
// members shipped. A node that counted a share into its stats but left it out
// of its prepare reply (or the reverse) breaks the first equality.
func TestShipCountsRollUp(t *testing.T) {
	rs2, err := cluster.BuildDistributedGroups(7, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		layout    *cluster.Layout
		workload  string
		dedup     bool
		chunkSize int
	}{
		{"paper12-uniform", paperLayout(t), WorkloadUniform, false, 0},
		{"paper12-rewrite-dedup", paperLayout(t), WorkloadRewrite, true, 0},
		{"rs2-7node", rs2, WorkloadUniform, false, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, _ := dedupCluster(t, tc.layout, tc.chunkSize, tc.workload, tc.dedup)
			shadow, err := NewShadowWith(tc.layout, dedupPages, dedupPageSize, dedupSeed, tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			m := int64(tc.layout.Tolerance)
			var rounds ShipCounts
			for r := 0; r < 4; r++ {
				if err := coord.Step(12); err != nil {
					t.Fatal(err)
				}
				shadow.Step(12)
				changed, unchanged := shadowDirtySplit(shadow)
				if err := coord.Checkpoint(); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				shadow.Commit()
				st := coord.RoundStats()
				rounds.Add(st.ShipCounts)
				shipped := changed + unchanged
				if tc.dedup {
					shipped = changed
					if got := st.DedupHits + st.DedupMisses; got != changed+unchanged {
						t.Errorf("round %d: %d dedup hits + misses, %d dirty pages", r, got, changed+unchanged)
					}
				}
				if want := shipped * dedupPageSize * m; st.DeltaRawBytes != want {
					t.Errorf("round %d: DeltaRawBytes %d, want %d (%d pages x %d B x m=%d)",
						r, st.DeltaRawBytes, want, shipped, dedupPageSize, m)
				}
			}
			var nodes ShipCounts
			var received, dups int64
			for n := 0; n < tc.layout.Nodes; n++ {
				st, err := coord.NodeStats(n)
				if err != nil {
					t.Fatal(err)
				}
				nodes.Add(st.ShipCounts)
				received += st.ChunksReceived
				dups += st.DupChunks
			}
			if rounds != nodes {
				t.Errorf("rounds sum to %+v, nodes to %+v", rounds, nodes)
			}
			if received != nodes.ChunksShipped || dups != 0 {
				t.Errorf("keepers folded %d chunks (%d duplicates), members shipped %d", received, dups, nodes.ChunksShipped)
			}
			if rounds.BytesShipped == 0 || (tc.dedup && rounds.DedupHits == 0) {
				t.Errorf("test premise broken: %+v", rounds)
			}
		})
	}
}
