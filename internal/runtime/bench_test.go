package runtime

import (
	"testing"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/transport"
	"dvdc/internal/wire"
)

// benchCluster spins up a localhost cluster with real VM geometry (pages x
// pageSize bytes per VM) and returns a coordinator over it. rtt > 0 inserts
// a latency-injecting proxy in front of every node, emulating a network
// where each message spends rtt/2 on the wire — the regime the paper's
// Sec. IV-B utilization argument lives in, and where serial fan-out hurts.
// chunkSize follows SetChunkSize: 0 = default, > 0 = bytes.
func benchCluster(b *testing.B, layout *cluster.Layout, pages, pageSize int, rtt time.Duration, chunkSize int) (*Coordinator, []*Node) {
	b.Helper()
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		n, err := NewNode("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
		if rtt > 0 {
			addrs[i] = delayProxy(b, n.Addr(), rtt/2)
		}
	}
	b.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	coord, err := NewCoordinator(layout, addrs, pages, pageSize, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(coord.Close)
	coord.SetChunkSize(chunkSize)
	if err := coord.Setup(); err != nil {
		b.Fatal(err)
	}
	return coord, nodes
}

// delayProxy forwards wire messages to backend after an injected one-way
// delay, so loopback behaves like a LAN hop.
func delayProxy(b *testing.B, backend string, delay time.Duration) string {
	b.Helper()
	pool := transport.NewPool(backend, transport.PoolOptions{Size: 64})
	s, err := transport.Listen("127.0.0.1:0", func(req *wire.Message) (*wire.Message, error) {
		time.Sleep(delay)
		return pool.Call(req)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		s.Close()
		pool.Close()
	})
	return s.Addr()
}

// serialize forces the seed's serial behavior: the coordinator contacts one
// node at a time and each node prepares one member at a time.
func serialize(coord *Coordinator, nodes []*Node) {
	coord.SetFanout(1)
	for _, n := range nodes {
		n.SetFanout(1)
	}
}

// BenchmarkRuntimeRound measures one checkpointed work round (Step +
// two-phase Checkpoint) end to end over real sockets. The 4-node case is the
// paper's Fig. 5 layout (4 nodes, 12 VMs); the 8-node cases are the
// acceptance layout for the serial-vs-concurrent coordinator comparison,
// with the "serial" variants pinning the fan-out width to 1 (the seed's
// behavior) and the "1msRTT" variants adding a 1ms round trip per message.
// VMs are 256 pages x 4 KiB = 1 MiB, so delta capture, shipping, and parity
// folding dominate over RPC framing.
func BenchmarkRuntimeRound(b *testing.B) {
	eightNode := func() (*cluster.Layout, error) {
		return cluster.BuildDistributedGroups(8, 1, 1, 7)
	}
	cases := []struct {
		name   string
		layout func() (*cluster.Layout, error)
		rtt    time.Duration
		serial bool
	}{
		{name: "4node12vm", layout: cluster.Paper12VM},
		{name: "8node", layout: eightNode},
		{name: "8node-serial", layout: eightNode, serial: true},
		{name: "8node-1msRTT", layout: eightNode, rtt: time.Millisecond},
		{name: "8node-1msRTT-serial", layout: eightNode, rtt: time.Millisecond, serial: true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			layout, err := tc.layout()
			if err != nil {
				b.Fatal(err)
			}
			coord, nodes := benchCluster(b, layout, 256, 4096, tc.rtt, 0)
			if tc.serial {
				serialize(coord, nodes)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := coord.Step(20); err != nil {
					b.Fatal(err)
				}
				if err := coord.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if coord.Epoch() != uint64(b.N) {
				b.Fatalf("epoch %d after %d rounds", coord.Epoch(), b.N)
			}
		})
	}
}

// BenchmarkDataPath sweeps the chunk size on large-image rounds (paper
// layout, 256 pages x 4 KiB = 1 MiB per VM, heavy write phase so deltas span
// many chunks). Run with -benchmem: the ship path recycles every frame and
// fold buffer through internal/bufpool and each keeper its parity pages
// through its own free list, so the allocation column is the headline number; shipped-MB/s is reported as a
// custom metric. These images are cache-resident — the repo benchmark
// (go run ./benchmark) measures the same rounds out of cache.
func BenchmarkDataPath(b *testing.B) {
	cases := []struct {
		name  string
		chunk int
	}{
		{"chunked-64KiB", 0}, // wire.DefaultChunkSize, the shipping default
		{"chunked-16KiB", 16 << 10},
		{"chunked-256KiB", 256 << 10},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			layout, err := cluster.Paper12VM()
			if err != nil {
				b.Fatal(err)
			}
			coord, _ := benchCluster(b, layout, 256, 4096, 0, tc.chunk)
			b.ReportAllocs()
			b.ResetTimer()
			var shipped int64
			for i := 0; i < b.N; i++ {
				if err := coord.Step(120); err != nil {
					b.Fatal(err)
				}
				if err := coord.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				shipped += coord.RoundStats().BytesShipped
			}
			b.StopTimer()
			if coord.Epoch() != uint64(b.N) {
				b.Fatalf("epoch %d after %d rounds", coord.Epoch(), b.N)
			}
			b.ReportMetric(float64(shipped)/1e6/b.Elapsed().Seconds(), "shippedMB/s")
		})
	}
}

// BenchmarkRecoverNodes times RecoverNodes alone — rollback, the streamed
// restore of every lost VM, the re-homing of every lost parity block — on
// out-of-cache images (2048 x 4 KiB = 8 MiB per VM); MB/s is lost image bytes
// restored per second of recovery. The RS case is the repo benchmark's
// recover-rs2 shape: 7 nodes, tolerance 2, two nodes killed together,
// alternating between two pairs so every cycle after the first has the same
// work to do; the XOR case kills one node of the paper's 12-VM layout. Untimed
// between recoveries: a checkpointed round, replacement daemons, Repair and
// Rebalance.
func BenchmarkRecoverNodes(b *testing.B) {
	const pages, pageSize = 2048, 4096
	cases := []struct {
		name    string
		layout  func() (*cluster.Layout, error)
		victims [][]int
	}{
		{"rs2-7node", func() (*cluster.Layout, error) { return cluster.BuildDistributedGroups(7, 1, 2, 3) }, [][]int{{0, 1}, {5, 6}}},
		{"xor-4node12vm", cluster.Paper12VM, [][]int{{1}}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			layout, err := tc.layout()
			if err != nil {
				b.Fatal(err)
			}
			coord, nodes := benchCluster(b, layout, pages, pageSize, 0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			var lost int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := coord.Step(200); err != nil {
					b.Fatal(err)
				}
				if err := coord.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				victims := tc.victims[i%len(tc.victims)]
				for _, v := range victims {
					nodes[v].Close()
				}
				b.StartTimer()
				plan, err := coord.RecoverNodes(victims...)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range plan.Steps {
					if s.Kind == cluster.RestoreVM {
						lost += pages * pageSize
					}
				}
				for _, v := range victims {
					if nodes[v], err = NewNode(nodes[v].Addr()); err != nil {
						b.Fatal(err)
					}
					if err := coord.Repair(v); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := coord.Rebalance(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.SetBytes(lost / int64(b.N))
		})
	}
}
