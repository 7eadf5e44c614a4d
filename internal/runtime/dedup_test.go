package runtime

import (
	"bytes"
	"fmt"
	"testing"

	"dvdc/internal/chaos"
	"dvdc/internal/cluster"
	"dvdc/internal/wire"
)

// dedupCluster is chunkedCluster with workload kind and dedup applied.
func dedupCluster(t *testing.T, layout *cluster.Layout, chunkSize int, workload string, dedup bool) (*Coordinator, []*Node) {
	t.Helper()
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		n, err := NewNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	coord, err := NewCoordinator(layout, addrs, 16, 64, 12345)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coord.SetChunkSize(chunkSize)
	coord.SetWorkload(workload)
	coord.SetDedup(dedup)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	return coord, nodes
}

// clusterDedupStats sums the dedup counters across every live node.
func clusterDedupStats(t *testing.T, coord *Coordinator) (hits, misses, saved int64) {
	t.Helper()
	for _, n := range coord.aliveNodes() {
		st, err := coord.NodeStats(n)
		if err != nil {
			t.Fatal(err)
		}
		hits += st.DedupHits
		misses += st.DedupMisses
		saved += st.DedupSavedBytes
	}
	return hits, misses, saved
}

// TestDedupRewriteWorkloadSavesShippedBytes drives two identical clusters on
// the rewrite workload — one with the unchanged-page skip, one without — and
// asserts the dedup cluster commits bit-identical state while shipping
// strictly less on every repeated epoch, with the hit counters moving.
func TestDedupRewriteWorkloadSavesShippedBytes(t *testing.T) {
	plain, _ := dedupCluster(t, paperLayout(t), 256, WorkloadRewrite, false)
	dedup, dnodes := dedupCluster(t, paperLayout(t), 256, WorkloadRewrite, true)

	const rounds = 4
	var plainShipped, dedupShipped [rounds]int64
	for r := 0; r < rounds; r++ {
		for _, c := range []*Coordinator{plain, dedup} {
			if err := c.Step(60); err != nil {
				t.Fatal(err)
			}
			if err := c.Checkpoint(); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		plainShipped[r] = plain.RoundStats().BytesShipped
		dedupShipped[r] = dedup.RoundStats().BytesShipped
		if r > 0 && dedup.RoundStats().DedupHits == 0 {
			t.Errorf("round %d: no pages deduped under the rewrite workload", r)
		}
	}
	// Repeated epochs must ship strictly less than the dedup-free twin.
	for r := 1; r < rounds; r++ {
		if dedupShipped[r] >= plainShipped[r] {
			t.Errorf("round %d: dedup shipped %d bytes, plain %d", r, dedupShipped[r], plainShipped[r])
		}
	}

	pstates, err := plain.VMStates()
	if err != nil {
		t.Fatal(err)
	}
	dstates, err := dedup.VMStates()
	if err != nil {
		t.Fatal(err)
	}
	for name, ps := range pstates {
		if ds, ok := dstates[name]; !ok || ps != ds {
			t.Errorf("%q diverges under dedup: plain %+v dedup %+v", name, ps, dstates[name])
		}
	}
	hits, misses, saved := clusterDedupStats(t, dedup)
	if hits == 0 || misses == 0 || saved == 0 {
		t.Errorf("dedup counters did not move: hits=%d misses=%d saved=%d", hits, misses, saved)
	}

	// The skipped folds must not have corrupted parity: kill a node and
	// verify recovery reconstructs bit-identical images.
	before, err := dedup.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	dnodes[1].Close()
	if _, err := dedup.RecoverNodes(1); err != nil {
		t.Fatal(err)
	}
	after, err := dedup.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range before {
		if after[name] != want {
			t.Errorf("%q diverged across recovery with dedup on", name)
		}
	}
}

// dedupPages and dedupSeed are the guest geometry and seed dedupCluster sets
// up, for the shadow that mirrors it.
const (
	dedupPages    = 16
	dedupPageSize = 64
	dedupSeed     = 12345
)

// shadowDirtySplit is the skip's oracle, taken from the shadow model and not
// from the nodes: over every VM's dirty pages, how many differ from the VM's
// committed image (the pages a round must ship) and how many are
// byte-identical to it (the pages a round must skip).
func shadowDirtySplit(s *Shadow) (changed, unchanged int64) {
	for _, sv := range s.vms {
		ps := sv.machine.PageSize()
		for _, i := range sv.machine.DirtyPages() {
			if bytes.Equal(sv.machine.Page(i), sv.committed[i*ps:(i+1)*ps]) {
				unchanged++
			} else {
				changed++
			}
		}
	}
	return changed, unchanged
}

// dedupRound runs one round on the cluster and its shadow and requires the
// round to have skipped exactly the unchanged dirty pages and shipped exactly
// the changed ones.
func dedupRound(t *testing.T, what string, coord *Coordinator, shadow *Shadow, steps uint64) {
	t.Helper()
	if err := coord.Step(steps); err != nil {
		t.Fatal(err)
	}
	shadow.Step(steps)
	changed, unchanged := shadowDirtySplit(shadow)
	if unchanged == 0 || changed == 0 {
		t.Fatalf("%s: shadow has %d changed and %d unchanged dirty pages; test premise broken", what, changed, unchanged)
	}
	_, m0, _ := clusterDedupStats(t, coord)
	if err := coord.Checkpoint(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	shadow.Commit()
	if got := coord.RoundStats().DedupHits; got != unchanged {
		t.Errorf("%s: round skipped %d pages, %d dirty pages were unchanged", what, got, unchanged)
	}
	if _, m1, _ := clusterDedupStats(t, coord); m1-m0 != changed {
		t.Errorf("%s: round shipped %d pages, %d dirty pages had changed", what, m1-m0, changed)
	}
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Errorf("%s: %v", what, err)
	}
}

// TestDedupAbortReshipsChangedPages pins what an aborted prepare leaves behind
// under dedup: the committed images are back where they were (the skip
// compares against them, so there is nothing else to rewind), the prepare's
// counters saw exactly the shadow's changed / unchanged split, and the round
// after the abort re-ships exactly the pages that had really changed — the
// ones the aborted capture staged and unstage re-marked — and nothing else.
// A stepped round after that skips every store-back page again, and images
// and parity stay bit-identical to the in-process oracle throughout.
func TestDedupAbortReshipsChangedPages(t *testing.T) {
	layout := paperLayout(t)
	coord, nodes := dedupCluster(t, layout, 256, WorkloadRewrite, true)
	shadow, err := NewShadowWith(layout, dedupPages, dedupPageSize, dedupSeed, WorkloadRewrite)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		dedupRound(t, fmt.Sprintf("warm-up round %d", r), coord, shadow, 60)
	}
	if err := coord.Step(30); err != nil {
		t.Fatal(err)
	}
	shadow.Step(30)
	changed, unchanged := shadowDirtySplit(shadow)
	if changed == 0 || unchanged == 0 {
		t.Fatalf("shadow has %d changed and %d unchanged dirty pages; test premise broken", changed, unchanged)
	}
	h0, m0, _ := clusterDedupStats(t, coord)
	for i, n := range nodes {
		if _, err := n.handle(&wire.Message{Type: wire.MsgPrepare, Epoch: coord.Epoch() + 1}); err != nil {
			t.Fatalf("prepare node %d: %v", i, err)
		}
	}
	for i, n := range nodes {
		if _, err := n.handle(&wire.Message{Type: wire.MsgAbort, Epoch: coord.Epoch() + 1}); err != nil {
			t.Fatalf("abort node %d: %v", i, err)
		}
	}
	shadow.Abort()
	h1, m1, _ := clusterDedupStats(t, coord)
	if h1-h0 != unchanged || m1-m0 != changed {
		t.Errorf("aborted prepare counted %d hits and %d misses, shadow says %d unchanged and %d changed",
			h1-h0, m1-m0, unchanged, changed)
	}
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatalf("after abort: %v", err)
	}
	// No step in between: the dirty set is exactly what the abort re-marked.
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	shadow.Commit()
	h2, m2, _ := clusterDedupStats(t, coord)
	if m2-m1 != changed {
		t.Errorf("post-abort round shipped %d pages, the aborted prepare had captured %d", m2-m1, changed)
	}
	if h2 != h1 {
		t.Errorf("post-abort round skipped %d pages; the unchanged ones should not have been dirty any more", h2-h1)
	}
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatalf("post-abort round: %v", err)
	}
	dedupRound(t, "round after the post-abort round", coord, shadow, 40)
}

// TestDedupSkipsResumeAfterRecovery is the regression test for what the
// page-hash cache got wrong: it was dropped wholesale by rollback and by every
// parity re-homing, so the round after a recovery, a repair or a rebalance
// shipped every dirty page, changed or not. The committed image the skip now
// compares against is rebuilt or rewound by exactly those operations, so the
// very next round after RecoverNodes, and again after Repair + Rebalance, must
// skip every store-back page — with images and parity bit-identical to the
// in-process oracle at each stage.
func TestDedupSkipsResumeAfterRecovery(t *testing.T) {
	layout := paperLayout(t)
	coord, nodes := dedupCluster(t, layout, 256, WorkloadRewrite, true)
	shadow, err := NewShadowWith(layout, dedupPages, dedupPageSize, dedupSeed, WorkloadRewrite)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		dedupRound(t, fmt.Sprintf("warm-up round %d", r), coord, shadow, 60)
	}
	// Kill a node that keeps parity for at least one group, mid-epoch, so the
	// recovery both rolls survivors back and re-homes a keeper.
	if err := coord.Step(20); err != nil {
		t.Fatal(err)
	}
	shadow.Step(20)
	victim := layout.Groups[0].ParityNodes[0]
	addr := nodes[victim].Addr()
	nodes[victim].Close()
	plan, err := coord.RecoverNodes(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := shadow.Recover(plan, coord.Epoch()); err != nil {
		t.Fatal(err)
	}
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	dedupRound(t, "first round after recovery", coord, shadow, 40)

	rn, err := NewNode(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rn.Close() })
	if err := coord.Repair(victim); err != nil {
		t.Fatal(err)
	}
	rplan, err := coord.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if err := shadow.Rebalance(rplan, coord.Epoch()); err != nil {
		t.Fatal(err)
	}
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatalf("after repair and rebalance: %v", err)
	}
	dedupRound(t, "first round after repair and rebalance", coord, shadow, 40)
}

// TestSoakDedupChunkFaultChaos is the pinned-seed soak with dedup on: rewrite
// workload, chunk-level drop/corrupt faults, node kills — RunSoak asserts
// bit-identical images against the shadow after every round, and its finish
// checks require the skip to have been exercised (hits > 0 under rewrite).
// The skip compares bytes, so it cannot leave a changed page out; that the
// shadow invariant would notice a fold that did go missing is pinned by
// TestSkippedFoldFailsOracle, the negative control this soak leans on. The
// seeds are pinned so a regression replays deterministically.
func TestSoakDedupChunkFaultChaos(t *testing.T) {
	for _, seed := range []int64{424242, 31337} {
		cfg := SoakConfig{
			Layout:        paperLayout(t),
			Rounds:        8,
			StepsPerRound: 25,
			Seed:          seed,
			ChunkSize:     256,
			ChunkFaults:   2,
			Workload:      WorkloadRewrite,
			Dedup:         true,
			ArmPerRound:   1,
			PPartition:    0.2,
			KillMTBF:      150,
		}
		res, err := RunSoak(cfg)
		if err != nil {
			t.Fatalf("seed %d: dedup soak failed: %v\nfault log:\n%s", seed, err, faultLines(res))
		}
		chunkFaults := 0
		for _, f := range res.FaultLog {
			if f.Armed && f.Pair.Src != chaos.Coordinator {
				chunkFaults++
			}
		}
		if chunkFaults == 0 {
			t.Errorf("seed %d: no armed chunk-frame fault fired", seed)
		}
	}
}
