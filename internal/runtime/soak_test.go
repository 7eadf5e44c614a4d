package runtime

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"dvdc/internal/chaos"
	"dvdc/internal/cluster"
	"dvdc/internal/obs"
)

// TestSoakPaperLayoutInvariants runs the full chaos soak on the paper's
// 4-node/12-VM layout: probabilistic corrupt/drop/delay on every link, two
// armed one-shot faults per round, transient partitions, and Poisson node
// kills — with every invariant in RunSoak checked after every round.
func TestSoakPaperLayoutInvariants(t *testing.T) {
	cfg := SoakConfig{
		Layout:        paperLayout(t),
		Rounds:        10,
		StepsPerRound: 30,
		Seed:          424242,
		Chaos:         chaos.Config{PCorrupt: 0.01, PDrop: 0.01, PDelay: 0.05},
		ArmPerRound:   2,
		PPartition:    0.2,
		KillMTBF:      120,
	}
	// The kill plan is a pure function of the seed; make sure this seed
	// actually exercises the kill/recover path before trusting the soak.
	plan, err := chaos.PlanPoissonKills(cfg.Layout.Nodes, cfg.Layout.Tolerance, cfg.Rounds, cfg.KillMTBF, 10, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalKills() == 0 {
		t.Fatalf("seed %d schedules no kills; pick a seed that does", cfg.Seed)
	}

	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatalf("soak failed: %v\nfault log:\n%s", err, faultLines(res))
	}
	if res.Epoch == 0 {
		t.Fatal("soak committed no epochs")
	}
	if res.Counters["kill"] == 0 || res.Counters["restart"] == 0 {
		t.Errorf("kill/restart never exercised: counters %v", res.Counters)
	}
	if len(res.FaultLog) == 0 {
		t.Error("no faults fired across the whole soak")
	}
	killed := false
	for _, rr := range res.Rounds {
		if len(rr.Kills) > 0 {
			killed = true
		}
	}
	if !killed {
		t.Error("no round recorded a kill despite a non-empty kill plan")
	}
}

// TestSoakChunkFaults pins the chunk-level chaos satellite: with the chunked
// data path forced to a small chunk size so every delta splits, one-shot
// drop/corrupt faults aimed at individual MsgDeltaChunk frames fire every
// round — and the cluster must still commit bit-identical state (RunSoak
// checks every VM against the shadow model after each round). The node pools
// absorb the severed connection with a retry, and the keeper-side stream
// dedup keeps the re-sent chunks from double-folding.
func TestSoakChunkFaults(t *testing.T) {
	for _, seed := range []int64{424242, 31337} {
		cfg := SoakConfig{
			Layout:        paperLayout(t),
			Rounds:        8,
			StepsPerRound: 25,
			Seed:          seed,
			ChunkSize:     256, // several chunks per delta at the 16x64B geometry
			ChunkFaults:   2,
			ArmPerRound:   1,
			PPartition:    0.2,
			KillMTBF:      150,
		}
		res, err := RunSoak(cfg)
		if err != nil {
			t.Fatalf("seed %d: soak failed: %v\nfault log:\n%s", seed, err, faultLines(res))
		}
		chunkFaults := 0
		for _, f := range res.FaultLog {
			// The only node-to-node armed faults in this config are the
			// chunk-frame ones; coordinator-pair arms have Src == Coordinator.
			if f.Armed && f.Pair.Src != chaos.Coordinator {
				chunkFaults++
			}
		}
		if chunkFaults == 0 {
			t.Errorf("seed %d: no armed chunk-frame fault fired", seed)
		}
	}
}

// TestSoakReproducibleBySeed is the acceptance gate for determinism: two
// soaks with the same seed (armed faults + kills, no probabilistic traffic)
// must produce identical fault logs, round digests, final checksums, and
// epochs; a different seed must diverge.
func TestSoakReproducibleBySeed(t *testing.T) {
	mk := func(seed int64) SoakConfig {
		return SoakConfig{
			Layout:        paperLayout(t),
			Rounds:        8,
			StepsPerRound: 25,
			Seed:          seed,
			ArmPerRound:   2,
			KillMTBF:      150,
		}
	}
	a, err := RunSoak(mk(7))
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	b, err := RunSoak(mk(7))
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if la, lb := fmt.Sprint(a.FaultLogDigest()), fmt.Sprint(b.FaultLogDigest()); la != lb {
		t.Errorf("fault logs diverged under one seed:\nA: %s\nB: %s", la, lb)
	}
	if da, db := fmt.Sprint(a.RoundDigest()), fmt.Sprint(b.RoundDigest()); da != db {
		t.Errorf("round digests diverged under one seed:\nA: %s\nB: %s", da, db)
	}
	if a.Epoch != b.Epoch {
		t.Errorf("final epochs diverged: %d vs %d", a.Epoch, b.Epoch)
	}
	if fmt.Sprint(a.Checksums) != fmt.Sprint(b.Checksums) {
		t.Error("final checksums diverged under one seed")
	}

	c, err := RunSoak(mk(8))
	if err != nil {
		t.Fatalf("run C: %v", err)
	}
	if fmt.Sprint(a.FaultLogDigest()) == fmt.Sprint(c.FaultLogDigest()) &&
		fmt.Sprint(a.RoundDigest()) == fmt.Sprint(c.RoundDigest()) {
		t.Error("different seeds produced identical fault logs and round digests")
	}
}

var updateSoakGolden = flag.Bool("update-soak-golden", false, "rewrite the direct-soak digest golden under testdata/")

const soakDirectGolden = "testdata/soak_direct_424242.golden"

// TestSoakDirectDigestGolden pins the direct soak's reproducible outcome —
// round digest, sorted fault log, final epoch, and final checksums — for one
// seed against a checked-in file, so a refactor of the soak loop that changes
// what the harness does (which faults it arms, which nodes it kills and
// recovers, what the shadow commits) fails here rather than in prose. Chunk
// faults and probabilistic chaos stay off: their fault notes and firing
// frames depend on timing. Regenerate with -update-soak-golden.
func TestSoakDirectDigestGolden(t *testing.T) {
	res, err := RunSoak(SoakConfig{
		Layout:        paperLayout(t),
		Rounds:        8,
		StepsPerRound: 25,
		Seed:          424242,
		ArmPerRound:   2,
		KillMTBF:      150,
	})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	var buf bytes.Buffer
	for _, l := range res.RoundDigest() {
		fmt.Fprintln(&buf, l)
	}
	for _, l := range res.FaultLogDigest() {
		fmt.Fprintln(&buf, "fault "+l)
	}
	fmt.Fprintf(&buf, "epoch %d\n", res.Epoch)
	names := make([]string, 0, len(res.Checksums))
	for name := range res.Checksums {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&buf, "checksum %s %016x\n", name, res.Checksums[name])
	}
	if *updateSoakGolden {
		if err := os.MkdirAll(filepath.Dir(soakDirectGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(soakDirectGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(soakDirectGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-soak-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("direct soak diverged from %s:\ngot:\n%s\nwant:\n%s", soakDirectGolden, buf.Bytes(), want)
	}
}

// TestSoakDrivesCoordinatorExecutor holds both soak drivers to the
// coordinator's own ExecuteRestore, the executor `dvdcctl serve` ships: at
// seed 424242 round 2 kills node 1, and the traced run must show the
// coordinator probing node 1 with a hello that fails and the recovery that
// probe owed, under the restore root the direct driver's call opens, or under
// the reconcile span of the service driver's restore request. A round with
// no victim and no node owing a recovery runs no restore: the direct run
// holds one restore root, the kill round's.
func TestSoakDrivesCoordinatorExecutor(t *testing.T) {
	for _, tc := range []struct {
		name     string
		service  bool
		mtbf     float64
		parent   string
		restores int
	}{
		{"direct", false, 150, "restore", 1},
		{"service", true, 120, "reconcile", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTracer(1 << 15)
			res, err := RunSoak(SoakConfig{
				Layout:        paperLayout(t),
				Rounds:        3,
				StepsPerRound: 20,
				Seed:          424242,
				KillMTBF:      tc.mtbf,
				Service:       tc.service,
				Tracer:        tr,
			})
			if err != nil {
				t.Fatalf("soak: %v", err)
			}
			if kills := res.Rounds[1].Kills; !slices.Equal(kills, []int{1}) {
				t.Fatalf("round 2 killed %v, want [1]", kills)
			}
			spans := tr.Spans()
			byID := map[uint64]obs.Span{}
			for _, s := range spans {
				byID[s.ID] = s
			}
			restores, probes, recoveries := 0, 0, 0
			for _, s := range spans {
				switch {
				case s.Parent == 0 && s.Name == "restore":
					restores++
				case s.Name == "rpc hello" && s.Attrs["peer"] == "node1" && s.Err != "" && byID[s.Parent].Name == tc.parent:
					probes++
				case s.Name == "recovery" && byID[s.Parent].Name == tc.parent:
					recoveries++
				}
			}
			if restores != tc.restores || probes == 0 || recoveries != 1 {
				t.Errorf("trace holds %d restore roots, %d failed hello probes of node1 and %d recoveries under a %s span; want %d, at least 1, and 1",
					restores, probes, recoveries, tc.parent, tc.restores)
			}
		})
	}
}

// TestSoakLargerLayouts scales the soak beyond the paper's configuration:
// 8 nodes (56 VMs), and 16 nodes with bounded group size unless -short.
func TestSoakLargerLayouts(t *testing.T) {
	cases := []struct {
		name   string
		layout func() (*cluster.Layout, error)
		rounds int
		long   bool
	}{
		{"8node", func() (*cluster.Layout, error) { return cluster.BuildDistributed(8, 1, 1) }, 6, false},
		{"16node", func() (*cluster.Layout, error) { return cluster.BuildDistributedGroups(16, 1, 1, 4) }, 5, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("16-node soak skipped in -short mode")
			}
			layout, err := tc.layout()
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunSoak(SoakConfig{
				Layout:        layout,
				Rounds:        tc.rounds,
				StepsPerRound: 20,
				Seed:          90210,
				ArmPerRound:   2,
				KillMTBF:      200,
			})
			if err != nil {
				t.Fatalf("soak failed: %v\nfault log:\n%s", err, faultLines(res))
			}
			if res.Epoch == 0 {
				t.Fatal("soak committed no epochs")
			}
		})
	}
}

// TestRecoverRestoresByteIdenticalImages is the satellite property test: for
// every orthogonal layout the cluster package can build, killing any single
// node and running RecoverNodes must restore every VM's committed image
// byte-for-byte — not just checksum-equal.
func TestRecoverRestoresByteIdenticalImages(t *testing.T) {
	layouts := []struct {
		name  string
		build func() (*cluster.Layout, error)
	}{
		{"first-shot-4", func() (*cluster.Layout, error) { return cluster.BuildFirstShot(4) }},
		{"dedicated-4x2", func() (*cluster.Layout, error) { return cluster.BuildDedicated(4, 2) }},
		{"paper-12vm", cluster.Paper12VM},
		{"distributed-groups-6", func() (*cluster.Layout, error) { return cluster.BuildDistributedGroups(6, 1, 1, 3) }},
	}
	for _, lc := range layouts {
		t.Run(lc.name, func(t *testing.T) {
			probe, err := lc.build()
			if err != nil {
				t.Fatal(err)
			}
			for victim := 0; victim < probe.Nodes; victim++ {
				layout, err := lc.build()
				if err != nil {
					t.Fatal(err)
				}
				coord, nodes := testCluster(t, layout)
				steps := uint64(40 + 13*victim) // vary the write stream per victim
				if err := coord.Step(steps); err != nil {
					t.Fatal(err)
				}
				if err := coord.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				before := fetchImages(t, coord)
				nodes[victim].Close()
				if _, err := coord.RecoverNodes(victim); err != nil {
					t.Fatalf("victim %d: recover: %v", victim, err)
				}
				after := fetchImages(t, coord)
				if len(after) != len(before) {
					t.Fatalf("victim %d: %d VMs after recovery, want %d", victim, len(after), len(before))
				}
				for name, img := range before {
					if !bytes.Equal(img, after[name]) {
						t.Errorf("victim %d: VM %q image diverged after recovery", victim, name)
					}
				}
			}
		})
	}
}

// fetchImages pulls every VM's committed image from whichever node currently
// hosts it, per the coordinator's live layout.
func fetchImages(t *testing.T, coord *Coordinator) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, v := range coord.Layout().VMs {
		out[v.Name], _, _ = readBlock(t, nil, coord.addrs[v.Node], "image", v.Name, 0)
	}
	return out
}

// TestChaosSoakRace is the race-detector satellite: checkpoints race against
// a node being killed from another goroutine mid-round, then the cluster is
// recovered, repaired, and re-checkpointed — all under a wall-clock budget so
// a deadlock inside the RPC layer fails fast instead of hanging go test.
func TestChaosSoakRace(t *testing.T) {
	layout := paperLayout(t)
	rpcTimeout := 2 * time.Second
	opts := NodeOptions{RPCTimeout: rpcTimeout}
	coord, nodes := testClusterWith(t, layout, opts)
	coord.SetRPCTimeout(rpcTimeout)
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.Addr()
	}

	iters := 4
	if testing.Short() {
		iters = 2
	}
	rng := rand.New(rand.NewSource(1701))
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := coord.Step(30); err != nil {
			t.Fatalf("iter %d: step: %v", i, err)
		}
		victim := rng.Intn(layout.Nodes)
		delay := time.Duration(rng.Intn(3000)) * time.Microsecond
		killed := make(chan struct{})
		go func() {
			time.Sleep(delay)
			nodes[victim].Close()
			close(killed)
		}()
		ckErr := coord.Checkpoint()
		<-killed
		var partial *PartialCommitError
		switch {
		case ckErr == nil, errors.As(ckErr, &partial):
			// Kill landed late enough (or the round absorbed it); the victim
			// is down now either way.
		default:
			// Prepare-phase abort; fall through to recovery.
		}
		if _, err := coord.RecoverNodes(victim); err != nil {
			t.Fatalf("iter %d: recover node %d: %v", i, victim, err)
		}
		n, err := NewNodeWith(addrs[victim], opts)
		if err != nil {
			t.Fatalf("iter %d: restart node %d: %v", i, victim, err)
		}
		nodes[victim] = n
		t.Cleanup(func() { n.Close() })
		if err := coord.Repair(victim); err != nil {
			t.Fatalf("iter %d: repair node %d: %v", i, victim, err)
		}
		if err := coord.Checkpoint(); err != nil {
			t.Fatalf("iter %d: post-recovery checkpoint: %v", i, err)
		}
		if _, err := coord.Rebalance(); err != nil {
			t.Fatalf("iter %d: rebalance: %v", i, err)
		}
	}
	// Deadline budget: each iteration does a handful of RPC rounds; anything
	// past this means a call sat on a dead connection instead of timing out.
	budget := time.Duration(iters) * 8 * rpcTimeout
	if elapsed := time.Since(start); elapsed > budget {
		t.Fatalf("soak took %v, budget %v — RPC deadlines not honored", elapsed, budget)
	}
}

func faultLines(res *SoakResult) string {
	if res == nil {
		return "(no result)"
	}
	var buf bytes.Buffer
	for _, l := range res.FaultLogDigest() {
		buf.WriteString("  " + l + "\n")
	}
	return buf.String()
}
