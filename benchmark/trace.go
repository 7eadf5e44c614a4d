package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/obs/collect"
)

// spanSink keeps every finished span in memory (the tracer's tap feeds it),
// so nothing touches a file until the run is over.
type spanSink struct {
	mu    sync.Mutex
	spans []obs.Span
}

func (k *spanSink) add(s obs.Span) {
	k.mu.Lock()
	k.spans = append(k.spans, s)
	k.mu.Unlock()
}

func (k *spanSink) all() []obs.Span {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]obs.Span(nil), k.spans...)
}

// writeJSONL writes the traces one after another, each as collect renders it:
// one span per line in canonical order.
func writeJSONL(path string, ids []uint64, trees map[uint64]*collect.Tree) error {
	var out []byte
	for _, id := range ids {
		b, err := trees[id].Marshal()
		if err != nil {
			return err
		}
		out = append(out, b...)
	}
	return os.WriteFile(path, out, 0o644)
}

// selfTime is a span's duration minus the part of it its children cover:
// the union of the child intervals, clipped to the span. (collect.Attribute
// subtracts the *sum* of child durations, which clamps every parallel
// fan-out — four concurrent prepare RPCs under one prepare span — to zero.)
func selfTime(t *collect.Tree, i int) time.Duration {
	s := t.Spans[i]
	kids := t.Children(s.ID)
	if len(kids) == 0 {
		return s.Duration()
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, ci := range kids {
		c := t.Spans[ci]
		a, b := c.Start, c.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
	var covered time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.After(end) {
			covered += v.b.Sub(v.a)
			end = v.b
		} else if v.b.After(end) {
			covered += v.b.Sub(end)
			end = v.b
		}
	}
	return s.Duration() - covered
}

// reduceRound reduces one traced round's tree to its per-layer metrics.
func reduceRound(t *collect.Tree) map[string]float64 {
	r := map[string]float64{ // every name present, so a layer that recorded no span reads 0
		"runtime.prepare_ms": 0, "runtime.commit_ms": 0, "runtime.ship_self_ms": 0, "runtime.fold_self_ms": 0,
		"transport.rpc_wait_ms": 0, "runtime.rpcs_per_round": 0, "runtime.coord_self_ms": 0,
	}
	for i, s := range t.Spans {
		switch s.Name {
		case "prepare":
			r["runtime.prepare_ms"] = ms(s.Duration())
		case "commit":
			r["runtime.commit_ms"] = ms(s.Duration())
		}
		self := ms(selfTime(t, i))
		switch {
		case strings.HasPrefix(s.Name, "ship "):
			r["runtime.ship_self_ms"] += self
		case strings.HasPrefix(s.Name, "fold g"):
			r["runtime.fold_self_ms"] += self
		case strings.HasPrefix(s.Name, "rpc "):
			r["transport.rpc_wait_ms"] += self
			r["runtime.rpcs_per_round"]++
		}
		if s.Lane == "coord" {
			r["runtime.coord_self_ms"] += self
		}
	}
	return r
}

// reduceRecovery reduces one traced recovery's tree: the rollback span, and
// the wall extent (first start to last end) of the concurrent per-group
// restore and rehome spans — a recovery waits for the slowest group, not the
// sum.
func reduceRecovery(t *collect.Tree) map[string]float64 {
	hull := func(prefix string) float64 {
		var a, b time.Time
		for _, s := range t.Spans {
			if !strings.HasPrefix(s.Name, prefix) {
				continue
			}
			if a.IsZero() || s.Start.Before(a) {
				a = s.Start
			}
			if s.End.After(b) {
				b = s.End
			}
		}
		return ms(b.Sub(a))
	}
	r := map[string]float64{
		"runtime.rollback_ms": 0,
		"runtime.restore_ms":  hull("restore g"),
		"runtime.rehome_ms":   hull("rehome g"),
	}
	for _, s := range t.Spans {
		if s.Name == "rollback" {
			r["runtime.rollback_ms"] = ms(s.Duration())
		}
	}
	return r
}

// tracedRun is everything one traced run measured.
type tracedRun struct {
	untracedMs, tracedMs []float64 // interleaved rounds' Checkpoint wall
	rounds               *roundSamples
	cycles               *cycleSamples
	roundTrees           []map[string]float64 // per traced round: metric -> value
	recoveryTrees        []map[string]float64 // per traced recovery
	spans                int
	trees                int
	image                int64
	layers               map[string]float64 // layer replay results by metric name
	layerSamples         map[string]int
	runWall              time.Duration
	ops                  ops
}

// runTraced is one traced run of one workload. Rounds alternate untraced and
// traced in an ABBA pattern so host drift hits both sides alike; the pair
// gives obs.trace_overhead_frac. Recovery cycles run traced throughout (a
// repaired node's connection pool takes its tracer when Repair re-creates
// it). The layer replay runs last, after the cluster is gone.
func runTraced(s spec, seed int64, traceOut string) (*tracedRun, error) {
	start := time.Now()
	res := &tracedRun{}
	o := &res.ops
	sink := &spanSink{}
	tr := obs.NewTracer(64) // the ring is unused: the tap keeps everything
	tr.SetTap(sink.add)

	b, err := bringUp(s, seed, tr)
	if err != nil {
		return nil, err
	}
	defer b.close()
	res.image = s.imageBytes(b.layout)

	var roundTraces, recoveryTraces []uint64
	isTraced := func(r int) bool { return r%4 == 1 || r%4 == 2 }
	res.rounds, res.cycles, err = drive(b, o, false,
		func(r int) error {
			if !isTraced(r) {
				return b.coord.Checkpoint()
			}
			b.tracing(true)
			root := tr.Start(obs.SpanContext{}, "bench.round", "bench")
			err := b.coord.CheckpointIn(root.Context())
			root.FinishErr(err)
			b.tracing(false)
			roundTraces = append(roundTraces, root.TraceID())
			return err
		},
		func(victims ...int) (*cluster.Plan, error) {
			b.tracing(true) // and it stays on: Repair re-creates the victim's pool
			root := tr.Start(obs.SpanContext{}, "bench.recovery", "bench")
			plan, err := b.coord.RecoverNodesIn(root.Context(), victims...)
			root.FinishErr(err)
			recoveryTraces = append(recoveryTraces, root.TraceID())
			return plan, err
		})
	if err != nil {
		return nil, err
	}
	recoveryTraces = recoveryTraces[1:] // the first cycle is discarded
	for r, v := range res.rounds.wallMs {
		if isTraced(r) {
			res.tracedMs = append(res.tracedMs, v)
		} else {
			res.untracedMs = append(res.untracedMs, v)
		}
	}
	var open error
	if n := tr.OpenSpans(); n != 0 {
		open = fmt.Errorf("%d spans still open after the cluster closed", n)
	}
	o.do("span accounting", open) //nolint:errcheck // counted and printed

	// The layer replay runs on a quiet process: the cluster is gone and its
	// heap collected.
	lr := newLayerReplay(s, seed, tr)
	if err := lr.run(); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	res.layers, res.layerSamples = lr.values, lr.samples

	// Every trace must be a closed, single-rooted tree; the per-layer numbers
	// come from the harness-rooted ones.
	spans := sink.all()
	res.spans = len(spans)
	ids, byTrace := obs.GroupTraces(spans)
	res.trees = len(ids)
	trees := map[uint64]*collect.Tree{}
	for _, id := range ids {
		t := collect.BuildTree(byTrace[id])
		trees[id] = t
		o.do(fmt.Sprintf("span tree %016x", id), t.Verify()) //nolint:errcheck // counted and printed
	}
	for _, id := range roundTraces {
		res.roundTrees = append(res.roundTrees, reduceRound(trees[id]))
	}
	for _, id := range recoveryTraces {
		res.recoveryTrees = append(res.recoveryTrees, reduceRecovery(trees[id]))
	}
	if traceOut != "" {
		if err := writeJSONL(traceOut, ids, trees); err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
	}
	res.runWall = time.Since(start)
	return res, nil
}
