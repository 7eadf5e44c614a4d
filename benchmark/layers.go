package main

import (
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"time"

	"dvdc/internal/bufpool"
	"dvdc/internal/core"
	"dvdc/internal/obs"
	"dvdc/internal/parity"
	"dvdc/internal/runtime"
	"dvdc/internal/transport"
	"dvdc/internal/vm"
	"dvdc/internal/wire"
)

// layerReplay measures each layer alone: harness spans around direct calls
// to the layer's exported functions, on data shaped like one round of the
// workload, next to two rooflines taken in the same run. Every timing is a
// qw over windows of 4 repetitions.
type layerReplay struct {
	spec   spec
	seed   int64
	tracer *obs.Tracer

	block    int           // kernel block size (16 MiB; the rs shards are half)
	roofline int           // bytes per roofline repetition (64 MiB)
	minReps  int           // repetitions per measurement, at least
	budget   time.Duration // ... and keep repeating until this much was timed, up to maxReps
	maxReps  int

	values  map[string]float64
	samples map[string]int
}

func newLayerReplay(s spec, seed int64, tr *obs.Tracer) *layerReplay {
	lr := &layerReplay{
		spec: s, seed: seed, tracer: tr,
		block: 16 << 20, roofline: 64 << 20,
		minReps: 20, budget: 250 * time.Millisecond, maxReps: 400,
		values: map[string]float64{}, samples: map[string]int{},
	}
	if s.nonCompar {
		lr.block, lr.roofline = 256<<10, 1<<20
		lr.minReps, lr.budget, lr.maxReps = 2*window, 0, 2*window
	}
	return lr
}

// stage accumulates one measurement's per-repetition durations.
type stage struct {
	bytes float64 // bytes one repetition moves (0: report time per op instead)
	secs  []float64
}

// repeat runs rep until the replay's repetition rule is satisfied. rep
// returns the time it wants counted (its own timed section).
func (lr *layerReplay) repeat(rep func() (time.Duration, error)) error {
	var total time.Duration
	for i := 0; i < lr.maxReps && (i < lr.minReps || total < lr.budget); i++ {
		d, err := rep()
		if err != nil {
			return err
		}
		total += d
	}
	return nil
}

// timed runs fn under a harness span and returns its wall time.
func (lr *layerReplay) timed(root obs.SpanContext, name string, fn func() error) (time.Duration, error) {
	sp := lr.tracer.Child(root, name, "bench")
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.FinishErr(err)
	return d, err
}

// mbps records a throughput metric from a stage.
func (lr *layerReplay) mbps(metric string, st *stage) error {
	q, err := qw(st.secs, window)
	if err != nil {
		return fmt.Errorf("%s: %w", metric, err)
	}
	lr.values[metric] = st.bytes / 1e6 / q
	lr.samples[metric] = len(st.secs)
	return nil
}

// measure repeats fn under a harness span and records its throughput.
func (lr *layerReplay) measure(ctx obs.SpanContext, metric, span string, bytes int, fn func() error) error {
	st := &stage{bytes: float64(bytes)}
	if err := lr.repeat(func() (time.Duration, error) {
		d, err := lr.timed(ctx, span, fn)
		st.secs = append(st.secs, d.Seconds())
		return d, err
	}); err != nil {
		return err
	}
	return lr.mbps(metric, st)
}

func (lr *layerReplay) run() error {
	root := lr.tracer.Start(obs.SpanContext{}, "bench.replay", "bench")
	defer root.Finish()
	ctx := root.Context()
	for _, step := range []func(obs.SpanContext) error{
		lr.rooflines, lr.kernels, lr.dataPath, lr.assemble, lr.rpc,
	} {
		if err := step(ctx); err != nil {
			return err
		}
		goruntime.GC()
	}
	v := lr.values
	v["core.capture_vs_memcpy"] = v["core.capture_mb_s"] / v["roofline.memcpy_mb_s"]
	v["parity.xor_vs_memcpy"] = v["parity.xor_mb_s"] / v["roofline.memcpy_mb_s"]
	v["transport.bulk_vs_loopback"] = v["transport.bulk_mb_s"] / v["roofline.loopback_mb_s"]
	return nil
}

// fill writes a cheap deterministic non-zero pattern.
func fill(b []byte, salt byte) {
	for i := range b {
		b[i] = byte(i*7) ^ salt
	}
}

// rooflines: copy() of 64 MiB, and one-way loopback TCP of 64 MiB in 64 KiB
// writes to a reader that discards. Denominators only.
func (lr *layerReplay) rooflines(ctx obs.SpanContext) error {
	src, dst := make([]byte, lr.roofline), make([]byte, lr.roofline)
	fill(src, 1)
	if err := lr.measure(ctx, "roofline.memcpy_mb_s", "roofline memcpy", lr.roofline,
		func() error { copy(dst, src); return nil }); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	got := make(chan error, 1) // one completion per repetition, consumed before the next
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- err
			return
		}
		defer c.Close()
		for {
			if _, err := io.CopyN(io.Discard, c, int64(lr.roofline)); err != nil {
				got <- err
				return
			}
			got <- nil
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	return lr.measure(ctx, "roofline.loopback_mb_s", "roofline loopback", lr.roofline, func() error {
		for off := 0; off < len(src); off += 64 << 10 {
			if _, err := c.Write(src[off:min(off+64<<10, len(src))]); err != nil {
				return err
			}
		}
		return <-got
	})
}

// kernels: the parity package's bulk kernels on blocks of the VM image size.
func (lr *layerReplay) kernels(ctx obs.SpanContext) error {
	a, b, c := make([]byte, lr.block), make([]byte, lr.block), make([]byte, lr.block)
	fill(a, 2)
	fill(b, 3)
	fill(c, 4)
	if err := lr.measure(ctx, "parity.xor_mb_s", "parity.XORInto", lr.block, func() error { return parity.XORInto(a, b) }); err != nil {
		return err
	}
	if err := lr.measure(ctx, "parity.xor_drain_mb_s", "parity.XORDrain", lr.block, func() error { return parity.XORDrain(a, b) }); err != nil {
		return err
	}
	fill(b, 3)
	if err := lr.measure(ctx, "parity.gf_mul_mb_s", "parity.MulSliceInto", lr.block, func() error { return parity.MulSliceInto(a, b, 0x57) }); err != nil {
		return err
	}
	if err := lr.measure(ctx, "parity.xor_reconstruct_mb_s", "parity.ReconstructOne", 3*lr.block, func() error {
		_, err := parity.ReconstructOne(a, b, c)
		return err
	}); err != nil {
		return err
	}
	// RS(3,2) with two data shards erased: the decode a double failure pays.
	rs, err := parity.NewRS(3, 2)
	if err != nil {
		return err
	}
	half := lr.block / 2
	data := [][]byte{a[:half], b[:half], c[:half]}
	par, err := rs.Encode(data)
	if err != nil {
		return err
	}
	return lr.measure(ctx, "parity.rs_reconstruct_mb_s", "parity.RS.Reconstruct", 2*half, func() error {
		return rs.Reconstruct([][]byte{nil, nil, data[2], par[0], par[1]})
	})
}

// chunkPlan lays sorted dirty pages out the way the runtime's ship path does:
// contiguous page runs, cut into chunks of at most the default chunk size,
// each chunk's data a scatter list of the captured page buffers.
func chunkPlan(d *core.Delta, imageBytes int) ([]wire.Chunk, [][][]byte) {
	var chunks []wire.Chunk
	var segs [][][]byte
	pages := d.Pages // CaptureDelta walks the dirty bitmap in page order
	for i := 0; i < len(pages); {
		j := i
		for j+1 < len(pages) && pages[j+1].Index == pages[j].Index+1 {
			j++
		}
		perChunk := wire.DefaultChunkSize / pageSize
		for at := i; at <= j; at += perChunk {
			end := min(at+perChunk, j+1)
			var sg [][]byte
			for _, p := range pages[at:end] {
				sg = append(sg, p.Data)
			}
			chunks = append(chunks, wire.Chunk{
				Offset: uint64(pages[at].Index * pageSize),
				Total:  uint64(imageBytes),
				RawLen: uint32((end - at) * pageSize),
			})
			segs = append(segs, sg)
		}
		i = j + 1
	}
	for i := range chunks {
		chunks[i].Index, chunks[i].Count = uint32(i), uint32(len(chunks))
	}
	return chunks, segs
}

// dataPath replays one member's share of a round, stage by stage, on a
// machine of the workload's image size dirtied by the workload's own write
// pattern: guest steps, capture, scatter encode, decode, keeper fold, and the
// range-drained commit. The keeper is block tolerance-1 of an RS(3, m) group,
// so the m=2 workload folds through the GF(256) kernels and the XOR workloads
// through XOR. The dedup filter is not replayed (it is unexported): its cost
// shows in runtime.ship_self_ms on rewrite-dedup.
func (lr *layerReplay) dataPath(ctx obs.SpanContext) error {
	s := lr.spec
	layout, err := s.layout()
	if err != nil {
		return err
	}
	m, err := vm.NewMachine("vm-a", s.pages, pageSize)
	if err != nil {
		return err
	}
	var w vm.Workload = vm.NewUniform(lr.seed)
	if s.kind == runtime.WorkloadRewrite {
		w = vm.NewRewrite(lr.seed, 0.125)
	}
	mem, err := core.NewMember(m)
	if err != nil {
		return err
	}
	image := s.pages * pageSize
	zero := make([]byte, image)
	keeper, err := core.NewMKeeper(0, layout.Tolerance-1, layout.Tolerance,
		map[string][]byte{"vm-a": mem.CommittedImage(), "vm-b": zero, "vm-c": zero})
	if err != nil {
		return err
	}
	pending := make([]byte, image)

	step := &stage{}
	capture, encode, decode := &stage{}, &stage{}, &stage{}
	fold, commit := &stage{}, &stage{}
	var captureMallocs, captureBytes float64
	var ms0, ms1 goruntime.MemStats
	err = lr.repeat(func() (time.Duration, error) {
		var total time.Duration
		add := func(st *stage, name string, bytes int, fn func() error) error {
			d, err := lr.timed(ctx, name, fn)
			st.secs = append(st.secs, d.Seconds())
			st.bytes = float64(bytes) // every repetition moves (nearly) the same bytes; the last one labels the stage
			total += d
			return err
		}
		if err := add(step, "vm.Workload.Step", 0, func() error { vm.Run(w, m, int(s.steps)); return nil }); err != nil {
			return 0, err
		}
		var d *core.Delta
		goruntime.ReadMemStats(&ms0)
		if err := add(capture, "core.Member.CaptureDeltaInto", 0, func() (err error) {
			d, err = mem.CaptureDeltaInto(bufpool.Get)
			return err
		}); err != nil {
			return 0, err
		}
		goruntime.ReadMemStats(&ms1)
		raw := int(d.PayloadBytes())
		capture.bytes = float64(raw)
		captureMallocs += float64(ms1.Mallocs - ms0.Mallocs)
		captureBytes += float64(raw)

		chunks, segs := chunkPlan(d, image)
		var batches []*wire.FrameWriter
		if err := add(encode, "wire.FrameWriter.AppendChunkScatter", raw, func() error {
			var cur *wire.FrameWriter
			for i := range chunks {
				if cur == nil || cur.Len()+wire.ChunkHeaderLen+int(chunks[i].RawLen) > 256<<10+wire.ChunkHeaderLen {
					cur = &wire.FrameWriter{Alloc: bufpool.Get}
					batches = append(batches, cur)
				}
				cur.AppendChunkScatter(&chunks[i], segs[i])
			}
			return nil
		}); err != nil {
			return 0, err
		}
		rendered := make([][]byte, len(batches)) // what a socket read hands the keeper
		for i, fw := range batches {
			rendered[i] = fw.Bytes()
			fw.Release(bufpool.Put)
		}
		var decoded []wire.Chunk
		if err := add(decode, "wire.DecodeChunkPrefix", raw, func() error {
			for _, b := range rendered {
				for len(b) > 0 {
					c, n, err := wire.DecodeChunkPrefix(b)
					if err != nil {
						return err
					}
					decoded = append(decoded, c)
					b = b[n:]
				}
			}
			return nil
		}); err != nil {
			return 0, err
		}
		if err := add(fold, "core.MKeeper.FoldInto", raw, func() error {
			for _, c := range decoded {
				if err := keeper.FoldInto(pending, "vm-a", int(c.Offset), c.Data); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return 0, err
		}
		// The runtime commits the coalesced chunk ranges: few large ones on a
		// dense round, thousands of single pages on a sparse one.
		var ranges [][2]int
		for _, c := range decoded {
			lo, hi := int(c.Offset), int(c.Offset)+int(c.RawLen)
			if n := len(ranges); n > 0 && ranges[n-1][1] == lo {
				ranges[n-1][1] = hi
			} else {
				ranges = append(ranges, [2]int{lo, hi})
			}
		}
		if err := add(commit, "core.MKeeper.DrainPendingRanges", raw, func() error {
			return keeper.DrainPendingRanges(pending, nil, ranges)
		}); err != nil {
			return 0, err
		}
		for _, p := range d.Pages {
			bufpool.Put(p.Data)
		}
		return total, nil
	})
	if err != nil {
		return err
	}
	q, err := qw(step.secs, window)
	if err != nil {
		return err
	}
	lr.values["vm.step_ns"] = q * 1e9 / float64(s.steps)
	lr.samples["vm.step_ns"] = len(step.secs)
	lr.values["core.capture_allocs_per_mb"] = captureMallocs / (captureBytes / 1e6)
	lr.samples["core.capture_allocs_per_mb"] = len(capture.secs)
	for metric, st := range map[string]*stage{
		"core.capture_mb_s": capture, "wire.encode_mb_s": encode, "wire.decode_mb_s": decode,
		"core.fold_mb_s": fold, "core.commit_mb_s": commit,
	} {
		if err := lr.mbps(metric, st); err != nil {
			return err
		}
	}
	return nil
}

// assemble: one whole image through wire.Assembler, the recovery read path.
func (lr *layerReplay) assemble(ctx obs.SpanContext) error {
	img := make([]byte, lr.spec.pages*pageSize)
	fill(img, 5)
	n := wire.ChunkCount(len(img), wire.DefaultChunkSize)
	chunks := make([]wire.Chunk, n)
	for i := range chunks {
		c, err := wire.ChunkOf(img, i, wire.DefaultChunkSize)
		if err != nil {
			return err
		}
		chunks[i] = c
	}
	return lr.measure(ctx, "wire.assemble_mb_s", "wire.Assembler", len(img), func() error {
		as := &wire.Assembler{Alloc: bufpool.Get}
		for _, c := range chunks {
			if err := as.Add(c); err != nil {
				return err
			}
		}
		out, err := as.Bytes()
		bufpool.Put(out)
		return err
	})
}

// rpc: transport.Pool.Call to a transport.Listen handler that discards —
// empty payload for the per-RPC floor, 1 MiB of scatter segments for the
// bulk path the ship layer uses.
func (lr *layerReplay) rpc(ctx obs.SpanContext) error {
	srv, err := transport.Listen("127.0.0.1:0", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Type: wire.MsgDeltaChunkOK}, nil
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	pool := transport.NewPool(srv.Addr(), transport.PoolOptions{})
	defer pool.Close()

	const perRep = 50 // calls per repetition, so one repetition is well above timer grain
	empty := &stage{}
	if err := lr.repeat(func() (time.Duration, error) {
		d, err := lr.timed(ctx, "transport.Pool.Call empty", func() error {
			for i := 0; i < perRep; i++ {
				if _, err := pool.Call(&wire.Message{Type: wire.MsgDeltaChunk}); err != nil {
					return err
				}
			}
			return nil
		})
		empty.secs = append(empty.secs, d.Seconds())
		return d, err
	}); err != nil {
		return err
	}
	q, err := qw(empty.secs, window)
	if err != nil {
		return err
	}
	lr.values["transport.rpc_us"] = q * 1e6 / perRep
	lr.samples["transport.rpc_us"] = len(empty.secs)

	seg := make([]byte, 64<<10)
	fill(seg, 6)
	segs := make(net.Buffers, 16)
	for i := range segs {
		segs[i] = seg
	}
	msg := &wire.Message{Type: wire.MsgDeltaChunk, PayloadSegs: segs}
	return lr.measure(ctx, "transport.bulk_mb_s", "transport.Pool.Call 1MiB", len(segs)*len(seg), func() error {
		_, err := pool.Call(msg)
		return err
	})
}
