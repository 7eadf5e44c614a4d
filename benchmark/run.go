package main

import (
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"syscall"
	"time"

	"dvdc/internal/bufpool"
	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/runtime"
	"dvdc/internal/vm"
)

// metric is one named number with its unit, as the last stdout line and the
// -out report carry it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ops counts operations the way the acceptance contract asks: one per
// Checkpoint, RecoverNodes, Repair and Rebalance call and one per per-VM
// checksum comparison. A failure is named on stderr as it happens.
type ops struct{ attempted, failed int }

func (o *ops) do(what string, err error) error {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", what, err)
	}
	return err
}

// compare counts one operation per VM in want.
func (o *ops) compare(what string, got, want map[string]uint64) {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var err error
		if g, ok := got[name]; !ok {
			err = fmt.Errorf("no checksum reported")
		} else if g != want[name] {
			err = fmt.Errorf("checksum %016x, want %016x", g, want[name])
		}
		o.do(what+" "+name, err) //nolint:errcheck // counted and printed; the run goes on to find every mismatch
	}
}

// shadowOp is one entry of the log the run keeps so the shadow model can be
// stepped after the cluster is gone: the model holds two more copies of
// every image, and running it beside the cluster would double the heap the
// memory metric is measuring.
type shadowOp struct {
	steps     uint64        // >0: Step(steps) then a committed round
	recover   *cluster.Plan // RecoverNodes plan, applied at epoch
	rebalance *cluster.Plan // Rebalance plan, applied at epoch
	epoch     uint64
}

// replayShadow steps a runtime.Shadow through the log and returns the
// committed checksums the cluster must have ended with. Commits are folded
// to the points where the committed image is observable (before a recovery or
// rebalance, and at the end): no round in the log aborts, so the model's
// committed image between those points is never read, and Shadow.Commit
// copies every image.
func replayShadow(s spec, seed int64, log []shadowOp) (map[string]uint64, uint64, error) {
	layout, err := s.layout()
	if err != nil {
		return nil, 0, err
	}
	sh, err := runtime.NewShadowWith(layout, s.pages, pageSize, seed, s.kind)
	if err != nil {
		return nil, 0, err
	}
	var epoch uint64
	stale := false
	commit := func() {
		if stale {
			sh.Commit()
			stale = false
		}
	}
	for _, op := range log {
		switch {
		case op.steps > 0:
			sh.Step(op.steps)
			epoch++
			stale = true
		case op.recover != nil:
			commit()
			if err := sh.Recover(op.recover, op.epoch); err != nil {
				return nil, 0, err
			}
		case op.rebalance != nil:
			commit()
			if err := sh.Rebalance(op.rebalance, op.epoch); err != nil {
				return nil, 0, err
			}
		}
	}
	commit()
	return sh.Checksums(), epoch, nil
}

// replayDirtyPages replays the seeded guest workload outside the cluster and
// returns how many distinct pages the whole cluster dirties in round `round`
// (0 = the bring-up round). Dirty sets depend only on the write stream, so
// the replay uses 8-byte pages. It mirrors the runtime's per-VM seed
// derivation and workload constructors on purpose: if either drifts, the
// cross-check against the nodes' own counters fails loudly.
func replayDirtyPages(s spec, layout *cluster.Layout, seed int64, round int) (int64, error) {
	var total int64
	for _, v := range layout.VMs {
		h := seed
		for _, r := range v.Name {
			h = h*131 + int64(r)
		}
		var w vm.Workload = vm.NewUniform(h)
		if s.kind == runtime.WorkloadRewrite {
			w = vm.NewRewrite(h, 0.125)
		}
		m, err := vm.NewMachine(v.Name, s.pages, 8)
		if err != nil {
			return 0, err
		}
		for r := 0; r <= round; r++ {
			m.BeginEpoch()
			vm.Run(w, m, int(s.steps))
		}
		total += int64(m.DirtyCount())
	}
	return total, nil
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapAfterGC forces a collection and returns the heap the live objects
// occupy plus the cumulative allocation counter.
func heapAfterGC() (inuse, totalAlloc uint64) {
	goruntime.GC()
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.HeapInuse, m.TotalAlloc
}

// measureSetup returns the warm bring-up times and leaves the last cluster
// up: it is the one the rest of the run measures. The first bring-up pays
// first-touch page faults for the whole heap (0.3–1.1 s of pure host noise on
// the dev box) and is discarded.
func measureSetup(s spec, seed int64) (*bench, []float64, error) {
	cold, err := bringUp(s, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	cold.close()
	goruntime.GC()
	var secs []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		b, err := bringUp(s, seed, nil)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == setupSamples-1 {
			return b, secs, nil
		}
		b.close()
		goruntime.GC()
	}
}

// roundSamples are the per-round series of the timed rounds.
type roundSamples struct {
	wallMs, cpuMs            []float64
	shipped, chunks, retries int64
	dirty                    int64 // dirty bytes, each counted once
	firstDirty               int64 // dirty bytes of the first timed round
	hits, misses             int64 // dedup cache
	allocBytes               uint64
	heapMax                  uint64
	pool                     bufpool.Stats // delta over the timed rounds
	wall                     time.Duration
}

// timedRounds drives n Step+Checkpoint rounds, timing only Checkpoint. With
// sampleHeap, it forces a GC every n/heapBlocks rounds and samples the heap
// (the traced run does not: a GC pinned to block boundaries would always land
// beside the same side of its untraced/traced alternation). checkpoint issues
// round r's Checkpoint call, so the traced run can put a span around it.
func timedRounds(b *bench, n int, o *ops, sampleHeap bool, checkpoint func(r int) error) (*roundSamples, error) {
	rs := &roundSamples{wallMs: make([]float64, 0, n), cpuMs: make([]float64, 0, n)}
	c0, err := b.counters()
	if err != nil {
		return nil, err
	}
	heap0, alloc0 := heapAfterGC()
	rs.heapMax = heap0
	pool0 := bufpool.Snapshot()
	start := time.Now()
	for r := 0; r < n; r++ {
		if err := b.coord.Step(b.spec.steps); err != nil {
			return nil, fmt.Errorf("step: %w", err)
		}
		cpu0, t0 := cpuNow(), time.Now()
		err := checkpoint(r)
		wall, cpu := time.Since(t0), cpuNow()-cpu0
		if o.do("checkpoint", err) != nil {
			return nil, err
		}
		rs.wallMs = append(rs.wallMs, ms(wall))
		rs.cpuMs = append(rs.cpuMs, ms(cpu))
		st := b.coord.RoundStats()
		rs.shipped += st.BytesShipped
		rs.chunks += st.ChunksShipped
		rs.retries += st.RPCRetries
		if r == 0 {
			c, err := b.counters()
			if err != nil {
				return nil, err
			}
			rs.firstDirty = c.dirtySince(c0, b.layout.Tolerance)
		}
		if sampleHeap && (r+1)%(n/heapBlocks) == 0 {
			heap, _ := heapAfterGC()
			rs.heapMax = max(rs.heapMax, heap)
		}
	}
	rs.wall = time.Since(start)
	pool1 := bufpool.Snapshot()
	rs.pool = bufpool.Stats{Gets: pool1.Gets - pool0.Gets, Misses: pool1.Misses - pool0.Misses, Oversize: pool1.Oversize - pool0.Oversize}
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	rs.allocBytes = m.TotalAlloc - alloc0
	c, err := b.counters()
	if err != nil {
		return nil, err
	}
	rs.dirty = c.dirtySince(c0, b.layout.Tolerance)
	rs.hits, rs.misses = c.hits-c0.hits, c.misses-c0.misses
	return rs, nil
}

// cycleSamples are the per-cycle series of the timed recovery cycles.
type cycleSamples struct {
	recoverMs, repairMs, rebalanceMs []float64
}

// recoveryCycles runs 1 discarded + n timed cycles. A cycle kills the fixed
// victim daemons, recovers them onto the survivors, checks every VM's
// committed checksum against its pre-failure value, restarts empty daemons on
// the same addresses, repairs, rebalances, and runs one untimed (light) round
// so the next cycle recovers fresh state. It returns the cluster's final committed
// checksums. recoverNodes wraps the call so the traced run can span it.
func recoveryCycles(b *bench, n int, o *ops, log *[]shadowOp,
	recoverNodes func(victims ...int) (*cluster.Plan, error)) (*cycleSamples, map[string]uint64, error) {
	cs := &cycleSamples{}
	committed, err := b.coord.Checksums()
	if err != nil {
		return nil, nil, fmt.Errorf("pre-failure checksums: %w", err)
	}
	for c := 0; c <= n; c++ {
		victims := b.spec.victims[c%len(b.spec.victims)]
		for _, v := range victims {
			b.kill(v)
		}
		t0 := time.Now()
		plan, err := recoverNodes(victims...)
		recWall := time.Since(t0)
		if o.do(fmt.Sprintf("recover nodes %v", victims), err) != nil {
			return nil, nil, err
		}
		*log = append(*log, shadowOp{recover: plan, epoch: b.coord.Epoch()})
		after, err := b.coord.Checksums()
		if err != nil {
			return nil, nil, fmt.Errorf("post-recovery checksums: %w", err)
		}
		o.compare("post-recovery checksum of", after, committed)

		var repWall time.Duration
		for _, v := range victims {
			if err := b.replace(v); err != nil {
				return nil, nil, err
			}
			t1 := time.Now()
			err := b.coord.Repair(v)
			repWall += time.Since(t1)
			if o.do(fmt.Sprintf("repair node %d", v), err) != nil {
				return nil, nil, err
			}
		}
		t2 := time.Now()
		rplan, err := b.coord.Rebalance()
		rebWall := time.Since(t2)
		if o.do("rebalance", err) != nil {
			return nil, nil, err
		}
		*log = append(*log, shadowOp{rebalance: rplan, epoch: b.coord.Epoch()})

		steps := min(b.spec.steps, cycleSteps)
		if err := b.coord.Step(steps); err != nil {
			return nil, nil, fmt.Errorf("post-repair step: %w", err)
		}
		if err := o.do("post-repair checkpoint", b.coord.Checkpoint()); err != nil {
			return nil, nil, err
		}
		*log = append(*log, shadowOp{steps: steps})
		if committed, err = b.coord.Checksums(); err != nil {
			return nil, nil, fmt.Errorf("post-repair checksums: %w", err)
		}
		if c == 0 {
			continue // the first cycle re-dials every pool and warms the recovery path
		}
		cs.recoverMs = append(cs.recoverMs, ms(recWall))
		cs.repairMs = append(cs.repairMs, ms(repWall))
		cs.rebalanceMs = append(cs.rebalanceMs, ms(rebWall))
	}
	return cs, committed, nil
}

// finalChecks closes the correctness gate: the epoch equals the rounds run,
// and the cluster's final committed checksums equal the shadow model's.
func finalChecks(s spec, seed int64, epoch uint64, final map[string]uint64, log []shadowOp, o *ops) error {
	want, rounds, err := replayShadow(s, seed, log)
	if err != nil {
		return fmt.Errorf("shadow replay: %w", err)
	}
	var eerr error
	if epoch != rounds {
		eerr = fmt.Errorf("epoch %d after %d committed rounds", epoch, rounds)
	}
	o.do("final epoch", eerr) //nolint:errcheck // counted and printed
	o.compare("final shadow checksum of", final, want)
	return nil
}

// drive is the measured part of a run, on a cluster that is already up with
// epoch 1 committed: warm-up rounds, the timed rounds, the dirty-byte
// cross-check, the recovery cycles, and — after closing the cluster, so the
// shadow model's two copies of every image do not sit beside it — the final
// correctness checks. checkpoint and recoverNodes issue the calls, so the
// traced run can wrap them in spans.
func drive(b *bench, o *ops, sampleHeap bool, checkpoint func(r int) error,
	recoverNodes func(victims ...int) (*cluster.Plan, error)) (*roundSamples, *cycleSamples, error) {
	s := b.spec
	log := make([]shadowOp, 0, 1+s.warmup+s.rounds+3*(s.cycles+1))
	log = append(log, shadowOp{steps: s.steps}) // the bring-up round
	for i := 0; i < s.warmup; i++ {
		if err := b.round(); err != nil {
			return nil, nil, fmt.Errorf("warm-up round: %w", err)
		}
		log = append(log, shadowOp{steps: s.steps})
	}
	rs, err := timedRounds(b, s.rounds, o, sampleHeap, checkpoint)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < s.rounds; i++ {
		log = append(log, shadowOp{steps: s.steps})
	}
	// Cross-check the nodes' dirty-byte counters once against the replayed
	// workload: the first timed round is round 1+warmup of every VM's stream.
	pages, err := replayDirtyPages(s, b.layout, b.seed, 1+s.warmup)
	if err != nil {
		return nil, nil, err
	}
	var derr error
	if got, want := rs.firstDirty, pages*pageSize; got != want {
		derr = fmt.Errorf("nodes counted %d dirty bytes in the first timed round, the replayed workload dirties %d", got, want)
	}
	o.do("dirty-byte cross-check", derr) //nolint:errcheck // counted and printed

	cs, final, err := recoveryCycles(b, s.cycles, o, &log, recoverNodes)
	if err != nil {
		return nil, nil, err
	}
	epoch := b.coord.Epoch()
	b.close()
	goruntime.GC()
	if err := finalChecks(s, b.seed, epoch, final, log, o); err != nil {
		return nil, nil, err
	}
	return rs, cs, nil
}

// timedSeconds is how long the timed rounds and timed recoveries took.
func timedSeconds(rs *roundSamples, cs *cycleSamples) float64 {
	t := rs.wall.Seconds()
	for _, v := range cs.recoverMs {
		t += v / 1e3
	}
	return t
}

// e2eRun is everything one untraced run measured.
type e2eRun struct {
	setupS  []float64
	rounds  *roundSamples
	cycles  *cycleSamples
	image   int64
	roofs   map[string]float64 // both rooflines, so the numbers can be read off this machine
	runWall time.Duration
	ops     ops
}

// runE2E is one untraced run of one workload: warm setup samples, then the
// measured part on the last cluster brought up.
func runE2E(s spec, seed int64) (*e2eRun, error) {
	start := time.Now()
	res := &e2eRun{}
	b, setupS, err := measureSetup(s, seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	res.setupS = setupS
	res.image = s.imageBytes(b.layout)
	res.rounds, res.cycles, err = drive(b, &res.ops, true,
		func(int) error { return b.coord.Checkpoint() }, b.coord.RecoverNodes)
	if err != nil {
		return nil, err
	}
	lr := newLayerReplay(s, seed, nil)
	lr.minReps, lr.budget = 2*window, 0
	if err := lr.rooflines(obs.SpanContext{}); err != nil {
		return nil, fmt.Errorf("rooflines: %w", err)
	}
	res.roofs = lr.values
	res.runWall = time.Since(start)
	return res, nil
}
