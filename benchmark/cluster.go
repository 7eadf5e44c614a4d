package main

import (
	"fmt"

	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/runtime"
)

// bench is one live loopback cluster: node daemons on 127.0.0.1 ports of the
// kernel's choosing and a coordinator over them, all in this process. It is
// driven only through the public API of internal/runtime.
type bench struct {
	spec   spec
	seed   int64
	layout *cluster.Layout
	nodes  []*runtime.Node
	addrs  map[int]string
	coord  *runtime.Coordinator
	tracer *obs.Tracer // nil on untraced runs
}

// bringUp is the unit setup_s times: start the node daemons, build the
// coordinator, configure every node (VM images, initial parity), and drive
// the first Step+Checkpoint so the cluster holds a committed epoch 1. A nil
// tracer leaves every layer untraced.
func bringUp(s spec, seed int64, tracer *obs.Tracer) (*bench, error) {
	layout, err := s.layout()
	if err != nil {
		return nil, err
	}
	b := &bench{spec: s, seed: seed, layout: layout, addrs: map[int]string{}, tracer: tracer}
	b.nodes = make([]*runtime.Node, layout.Nodes)
	for i := range b.nodes {
		if err := b.startNode(i, "127.0.0.1:0"); err != nil {
			b.close()
			return nil, err
		}
	}
	b.coord, err = runtime.NewCoordinator(layout, b.addrs, s.pages, pageSize, seed)
	if err != nil {
		b.close()
		return nil, err
	}
	b.coord.SetWorkload(s.kind)
	b.coord.SetDedup(s.dedup)
	// The coordinator's connection pools take their tracer when they are
	// created, which is during Setup; after that, tracing is switched per call
	// by attaching or detaching the coordinator's own tracer (an untraced
	// request carries no trace id, so pools and nodes record nothing for it).
	b.coord.SetObserver(tracer, nil)
	if err := b.coord.Setup(); err != nil {
		b.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	b.coord.SetObserver(nil, nil)
	if err := b.round(); err != nil {
		b.close()
		return nil, fmt.Errorf("first round: %w", err)
	}
	return b, nil
}

func (b *bench) startNode(i int, addr string) error {
	n, err := runtime.NewNodeWith(addr, runtime.NodeOptions{Tracer: b.tracer})
	if err != nil {
		return fmt.Errorf("start node %d on %s: %w", i, addr, err)
	}
	b.nodes[i] = n
	b.addrs[i] = n.Addr()
	return nil
}

// round is one untimed Step+Checkpoint.
func (b *bench) round() error {
	if err := b.coord.Step(b.spec.steps); err != nil {
		return err
	}
	return b.coord.Checkpoint()
}

// kill stops a node daemon: its listener and every connection close, so the
// coordinator and peers see it as unreachable.
func (b *bench) kill(i int) {
	b.nodes[i].Close() //nolint:errcheck // a listener close error changes nothing for a node being killed
}

// tracing switches the coordinator's tracer on or off for the calls that
// follow (a no-op on untraced runs, where the tracer is nil either way).
func (b *bench) tracing(on bool) {
	if on {
		b.coord.SetObserver(b.tracer, nil)
	} else {
		b.coord.SetObserver(nil, nil)
	}
}

// replace starts an empty daemon on the dead node's address, which is what
// Coordinator.Repair expects to find.
func (b *bench) replace(i int) error { return b.startNode(i, b.addrs[i]) }

func (b *bench) close() {
	if b.coord != nil {
		b.coord.Close()
	}
	for _, n := range b.nodes {
		if n != nil {
			n.Close() //nolint:errcheck // teardown
		}
	}
}

// nodeCounters are the node-side counters the dirty-byte and dedup metrics
// are built from, summed over the nodes.
type nodeCounters struct{ raw, saved, hits, misses int64 }

func (b *bench) counters() (nodeCounters, error) {
	var c nodeCounters
	for i := range b.nodes {
		st, err := b.coord.NodeStats(i)
		if err != nil {
			return c, fmt.Errorf("stats of node %d: %w", i, err)
		}
		c.raw += st.DeltaRawBytes
		c.saved += st.DedupSavedBytes
		c.hits += st.DedupHits
		c.misses += st.DedupMisses
	}
	return c, nil
}

// dirtySince is the dirty bytes captured since c0, each counted once:
// DeltaRawBytes counts a shipped byte once per parity block it went to (m of
// them), DedupSavedBytes counts a byte a dedup hit kept off the wire once.
func (c nodeCounters) dirtySince(c0 nodeCounters, m int) int64 {
	return (c.raw-c0.raw)/int64(m) + c.saved - c0.saved
}
