package runtime

import (
	"net"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"dvdc/internal/wire"
)

// connCounts tallies what a cluster's connections carry: every frame written,
// by type (through wire.FrameObserver, so once per frame however many writes
// it takes), and every Read and Write call on the connections. A Write call is
// counted as the wrapper sees it: a bulk frame's head and payload are two,
// where a bare TCP connection takes them in one writev.
type connCounts struct {
	frames        [256]atomic.Int64 // by wire.MsgType
	reads, writes atomic.Int64
}

func (n *connCounts) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: n}, nil
}

func (n *connCounts) listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: ln, n: n}, nil
}

// snapshot reads the tallies: frames by type, reads, writes.
func (n *connCounts) snapshot() (frames [256]int64, reads, writes int64) {
	for t := range n.frames {
		frames[t] = n.frames[t].Load()
	}
	return frames, n.reads.Load(), n.writes.Load()
}

type countingListener struct {
	net.Listener
	n *connCounts
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *connCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.n.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) ObserveFrame(m wire.Message, _ int) error {
	c.n.frames[m.Type].Add(1)
	return nil
}

// denseRoundPages sizes a Paper12VM member for the dense-round tests: 2 MiB,
// six or seven 256 KiB batches once most pages are dirty.
const denseRoundPages = 512

// countedDenseCluster is a live Paper12VM cluster of denseRoundPages-page
// members whose every connection — the coordinator's, the nodes' dials and
// their accepted connections — is counted by the returned tally, with two
// dense rounds committed. A dense round is dense-xor's shape: 1.5 guest writes
// per page, which dirties about 77 % of the pages.
func countedDenseCluster(t *testing.T) (*Coordinator, *connCounts) {
	t.Helper()
	layout := paperLayout(t)
	counts := &connCounts{}
	addrs := map[int]string{}
	for i := 0; i < layout.Nodes; i++ {
		n, err := NewNodeWith("127.0.0.1:0", NodeOptions{Dialer: counts.dial, Listen: counts.listen})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		addrs[i] = n.Addr()
	}
	coord, err := NewCoordinator(layout, addrs, denseRoundPages, 4096, 20120521)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coord.SetDialer(counts.dial)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		denseRound(t, coord, nil)
	}
	return coord, counts
}

// denseRound steps the guests through a dense round's writes and commits it;
// around is called around the Checkpoint alone, before and after.
func denseRound(t *testing.T, coord *Coordinator, around func(after bool)) {
	t.Helper()
	if err := coord.Step(denseRoundPages * 3 / 2); err != nil {
		t.Fatal(err)
	}
	if around != nil {
		around(false)
	}
	err := coord.Checkpoint()
	if around != nil {
		around(true)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// shipAllocsPerBatch bounds the heap a warm dense round allocates per chunk
// batch it ships, everything the Checkpoint allocates counted: the round's
// per-RPC and per-shipment bookkeeping included, the guest's pre-image pages
// (taken by Step) not. About 250–300 B a batch here: the fixed cost of a
// round's control plane spread over its batches. When every batch took a
// goroutine, closures, a request and a reply message, a decoded request and a
// scatter list, and every capture a fresh run list, it was 1.25–1.3 KB.
const shipAllocsPerBatch = 700

// TestDenseRoundAllocatesLittlePerBatch is the ship path's allocation guard:
// over warm dense rounds on Paper12VM, the best round's TotalAlloc per
// MsgDeltaChunk frame stays under shipAllocsPerBatch. The best of several,
// because a round whose in-flight depth beats every earlier one's draws new
// receive buffers from the pool; bookkeeping allocated per batch shows in
// every round. Under -race the instrumentation's own allocations (up to about
// 700 B a batch) are counted too, so there the figure is only logged.
func TestDenseRoundAllocatesLittlePerBatch(t *testing.T) {
	coord, counts := countedDenseCluster(t)
	best := -1.0
	for r := 0; r < 5; r++ {
		var m0, m1 goruntime.MemStats
		var b0 int64
		denseRound(t, coord, func(after bool) {
			if !after {
				b0 = counts.frames[wire.MsgDeltaChunk].Load()
				goruntime.ReadMemStats(&m0)
				return
			}
			goruntime.ReadMemStats(&m1)
		})
		batches := counts.frames[wire.MsgDeltaChunk].Load() - b0
		if batches == 0 {
			t.Fatal("a dense round shipped no batch")
		}
		if per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(batches); best < 0 || per < best {
			best = per
		}
	}
	if best > shipAllocsPerBatch && !raceEnabled {
		t.Errorf("every warm dense round allocated over %d B per shipped batch (best %.0f B)", shipAllocsPerBatch, best)
	} else {
		t.Logf("best warm dense round allocated %.0f B per shipped batch", best)
	}
}

// Frames one dense round on Paper12VM writes, by type, at this test's seed:
// the coordinator's prepare and commit to each of the four nodes and their
// replies, and the delta batches, each answered once.
const (
	denseRoundBatches = 84
	denseRoundFrames  = 4*4 + 2*denseRoundBatches
)

// TestDenseRoundFramesAndSyscalls pins the frames one dense round writes and
// bounds the Read and Write calls its connections take per frame: a frame is
// one Write, or two when its payload leaves from the sender's own buffer (a
// bulk frame), and its reader takes a few Reads (the length prefix and head
// through the connection's buffer, a bulk payload straight into its own).
// It logs reads and writes per batch, the figures EXPERIMENTS.md compares.
func TestDenseRoundFramesAndSyscalls(t *testing.T) {
	coord, counts := countedDenseCluster(t)
	var f0, f1 [256]int64
	var r0, r1, w0, w1 int64
	denseRound(t, coord, func(after bool) {
		if !after {
			f0, r0, w0 = counts.snapshot()
			return
		}
		f1, r1, w1 = counts.snapshot()
	})
	var frames int64
	for typ := range f1 {
		n := f1[typ] - f0[typ]
		frames += n
		if n > 0 {
			t.Logf("%v: %d frames", wire.MsgType(typ), n)
		}
	}
	batches := f1[wire.MsgDeltaChunk] - f0[wire.MsgDeltaChunk] // the round's only bulk frames
	reads, writes := r1-r0, w1-w0
	t.Logf("%d frames, %d batches: %d reads (%.2f a batch), %d writes (%.2f a batch)",
		frames, batches, reads, float64(reads)/float64(batches), writes, float64(writes)/float64(batches))
	if batches != denseRoundBatches || frames != denseRoundFrames {
		t.Errorf("a dense round wrote %d frames with %d batches, want %d with %d", frames, batches, denseRoundFrames, denseRoundBatches)
	}
	if writes > frames+batches {
		t.Errorf("%d writes for %d frames (%d bulk): a frame takes one write, a bulk frame two", writes, frames, batches)
	}
	if reads > 3*frames {
		t.Errorf("%d reads for %d frames: more than three a frame", reads, frames)
	}
}
