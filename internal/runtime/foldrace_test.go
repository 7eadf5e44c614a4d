package runtime

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dvdc/internal/cluster"
	"dvdc/internal/core"
	"dvdc/internal/transport"
	"dvdc/internal/wire"
)

// TestConcurrentGroupFoldRace drives a layout with two stacked group sets —
// every node hosts members and keepers of eight groups, so each checkpoint
// round runs many chunk handlers folding concurrently per node, one per
// inbound connection — and asserts the cluster commits state bit-identical to
// the in-process oracle, then survives a casualty. Run under -race this is the
// concurrency pin for handler folds of distinct groups on concurrent
// connections.
func TestConcurrentGroupFoldRace(t *testing.T) {
	layout, err := cluster.BuildDistributed(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	chunked, cnodes := chunkedCluster(t, layout, 128, false)
	shadow, err := NewShadow(layout, 16, 64, 12345)
	if err != nil {
		t.Fatal(err)
	}
	shadowRounds(t, chunked, shadow, 3)
	if err := oracleDiff(t, chunked, shadow); err != nil {
		t.Fatal(err)
	}
	before, err := chunked.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	cnodes[2].Close()
	if _, err := chunked.RecoverNode(2); err != nil {
		t.Fatal(err)
	}
	after, err := chunked.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range before {
		if after[name] != want {
			t.Errorf("%q diverged across recovery under concurrent folds", name)
		}
	}
}

// TestDuplicateChunkRedeliveryMidFoldRace redelivers an entire chunk stream
// from a second connection while the first stream's folds are in flight: the
// seen-set must admit each chunk exactly once no matter how the two
// connections' handler folds interleave on the keeper lock, so committed
// parity equals a reference keeper that folded each chunk once.
func TestDuplicateChunkRedeliveryMidFoldRace(t *testing.T) {
	layout := paperLayout(t)
	coord, _ := chunkedCluster(t, layout, 0, false)
	const pages, pageSize = 16, 64
	img := pages * pageSize

	g := layout.Groups[0]
	member := g.Members[0]
	parityNode := g.ParityNodes[0]

	initial := map[string][]byte{}
	for _, m := range g.Members {
		initial[m] = make([]byte, img)
	}
	ref, err := core.NewMKeeper(0, 0, layout.Tolerance, initial)
	if err != nil {
		t.Fatal(err)
	}

	// 16 chunks tiling the image, distinct content per chunk.
	const count = 16
	chunkLen := img / count
	chunks := make([]wire.Chunk, count)
	for i := range chunks {
		data := make([]byte, chunkLen)
		for j := range data {
			data[j] = byte(i*37 + j*11 + 5)
		}
		chunks[i] = wire.Chunk{
			Offset: uint64(i * chunkLen), Total: uint64(img),
			Index: uint32(i), Count: count,
			RawLen: uint32(chunkLen), Data: data,
		}
	}

	// Two connections race the same stream: one forward, one reversed, so
	// redeliveries land while the other connection's handler is folding.
	send := func(order []int) error {
		conn, err := transport.Dial(coord.addrs[parityNode])
		if err != nil {
			return err
		}
		defer conn.Close()
		for _, i := range order {
			resp, err := conn.Call(&wire.Message{
				Type: wire.MsgDeltaChunk, Epoch: 1, Group: 0, VM: member,
				Payload: wire.EncodeChunk(&chunks[i]),
			})
			if err != nil {
				return err
			}
			if resp.Type != wire.MsgDeltaChunkOK {
				return errUnexpectedReply(resp.Type)
			}
		}
		return nil
	}
	forward := make([]int, count)
	reverse := make([]int, count)
	for i := range forward {
		forward[i] = i
		reverse[i] = count - 1 - i
	}
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for _, order := range [][]int{forward, reverse} {
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			errs <- send(order)
		}(order)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	conn, err := transport.Dial(coord.addrs[parityNode])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if resp, err := conn.Call(&wire.Message{Type: wire.MsgCommit, Epoch: 1}); err != nil || resp.Type != wire.MsgCommitOK {
		t.Fatalf("commit: %v %v", resp, err)
	}

	pendingBuf := make([]byte, img)
	for _, c := range chunks {
		if err := ref.FoldInto(pendingBuf, member, int(c.Offset), c.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.CommitPending(pendingBuf, map[string]uint64{member: 1}); err != nil {
		t.Fatal(err)
	}
	if blk, _, _ := readBlock(t, coord.addrs[parityNode], "parity", "", 0); !bytes.Equal(blk, ref.Parity()) {
		t.Fatal("racing redelivery changed parity: a chunk folded twice or not at all")
	}
	st, err := coord.NodeStats(parityNode)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksReceived != count {
		t.Errorf("ChunksReceived = %d, want %d", st.ChunksReceived, count)
	}
	if st.DupChunks != count {
		t.Errorf("DupChunks = %d, want %d", st.DupChunks, count)
	}
}

// TestRejectedBatchFoldsAcceptedFramesOnce sends a batch [c0, c1] whose c1
// fails its CRC, then re-sends the good batch. The keeper rejects the first
// batch at c1 having accepted c0, so c0 must already be folded: the re-send
// drops it as a duplicate and folds c1 alone, and committed parity equals a
// reference keeper that folded each chunk once.
func TestRejectedBatchFoldsAcceptedFramesOnce(t *testing.T) {
	layout := paperLayout(t)
	coord, _ := chunkedCluster(t, layout, 0, false)
	const img = 16 * 64
	g := layout.Groups[0]
	member, parityNode := g.Members[0], g.ParityNodes[0]

	var batch []byte
	chunks := make([]wire.Chunk, 2)
	for i := range chunks {
		data := make([]byte, img/2)
		for j := range data {
			data[j] = byte(i*29 + j*3 + 7)
		}
		chunks[i] = wire.Chunk{
			Offset: uint64(i * img / 2), Total: img,
			Index: uint32(i), Count: 2,
			RawLen: img / 2, Data: data,
		}
		batch = append(batch, wire.EncodeChunk(&chunks[i])...)
	}
	broken := append([]byte(nil), batch...)
	broken[len(broken)-1] ^= 0xFF // c1's last data byte: its CRC no longer matches

	conn, err := transport.Dial(coord.addrs[parityNode])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(payload []byte) error {
		_, err := conn.Call(&wire.Message{Type: wire.MsgDeltaChunk, Epoch: 1, Group: 0, VM: member, Payload: payload})
		return err
	}
	if err := send(broken); err == nil {
		t.Fatal("a batch with a corrupt frame was accepted")
	}
	if err := send(batch); err != nil {
		t.Fatalf("re-send of the good batch: %v", err)
	}
	if resp, err := conn.Call(&wire.Message{Type: wire.MsgCommit, Epoch: 1}); err != nil || resp.Type != wire.MsgCommitOK {
		t.Fatalf("commit: %v %v", resp, err)
	}

	initial := map[string][]byte{}
	for _, m := range g.Members {
		initial[m] = make([]byte, img)
	}
	ref, err := core.NewMKeeper(0, 0, layout.Tolerance, initial)
	if err != nil {
		t.Fatal(err)
	}
	pending := make([]byte, img)
	for _, c := range chunks {
		if err := ref.FoldInto(pending, member, int(c.Offset), c.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.CommitPending(pending, map[string]uint64{member: 1}); err != nil {
		t.Fatal(err)
	}
	if blk, _, _ := readBlock(t, coord.addrs[parityNode], "parity", "", 0); !bytes.Equal(blk, ref.Parity()) {
		t.Fatal("parity diverges: an accepted chunk of the rejected batch was not folded exactly once")
	}
}

type errUnexpectedReply wire.MsgType

func (e errUnexpectedReply) Error() string { return "unexpected reply type" }

// TestAbortRacesInFlightFolds fires MsgAbort from a second connection while a
// chunk stream is mid-fold: the abort's drop and the sending
// connection's handler fold take turns on the keeper lock (never a clear from
// under a fold), late chunks may legitimately restart a stream, and a final
// abort leaves the keeper clean — proven by a full coordinator round plus
// casualty recovery committing bit-identical state afterwards.
func TestAbortRacesInFlightFolds(t *testing.T) {
	layout := paperLayout(t)
	coord, nodes := chunkedCluster(t, layout, 0, false)
	const pages, pageSize = 16, 64
	img := pages * pageSize

	g := layout.Groups[0]
	member := g.Members[0]
	parityNode := g.ParityNodes[0]

	const count = 16
	chunkLen := img / count
	sender, err := transport.Dial(coord.addrs[parityNode])
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	aborter, err := transport.Dial(coord.addrs[parityNode])
	if err != nil {
		t.Fatal(err)
	}
	defer aborter.Close()

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < count; i++ {
			data := make([]byte, chunkLen)
			for j := range data {
				data[j] = byte(i*13 + j*7 + 1)
			}
			c := wire.Chunk{
				Offset: uint64(i * chunkLen), Total: uint64(img),
				Index: uint32(i), Count: count,
				RawLen: uint32(chunkLen), Data: data,
			}
			if _, err := sender.Call(&wire.Message{
				Type: wire.MsgDeltaChunk, Epoch: 1, Group: 0, VM: member,
				Payload: wire.EncodeChunk(&c),
			}); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	go func() {
		defer wg.Done()
		// Several aborts spread across the stream maximize the chance one
		// lands while a fold is in flight.
		for k := 0; k < 4; k++ {
			if _, err := aborter.Call(&wire.Message{Type: wire.MsgAbort, Epoch: 1}); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Final abort: whatever partial stream the race left behind is dropped,
	// so the hand-crafted garbage never reaches committed parity.
	if resp, err := aborter.Call(&wire.Message{Type: wire.MsgAbort, Epoch: 1}); err != nil || resp.Type != wire.MsgAbortOK {
		t.Fatalf("final abort: %v %v", resp, err)
	}

	// The cluster must still run real rounds and reconstruct cleanly.
	if err := coord.Step(60); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	nodes[parityNode].Close()
	if _, err := coord.RecoverNode(parityNode); err != nil {
		t.Fatal(err)
	}
	after, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range before {
		if after[name] != want {
			t.Errorf("%q diverged after abort raced in-flight folds", name)
		}
	}
}

// TestStagedFoldsAbortsAndReadsInterleave runs three connections against one
// parity keeper at once: one streams chunks over every page of its block, one
// aborts again and again, one reads the parity block back. Staging, dropping
// and reading take turns on the keeper lock; every read must serve the
// committed block whole — staged pages are never visible — and when the last
// abort lands nothing is staged, the keeper holds at most its block plus one
// staged copy of it, and the next real round commits what the shadow model
// holds.
func TestStagedFoldsAbortsAndReadsInterleave(t *testing.T) {
	const pages, pageSize = 16, 4096 // 64 KiB blocks: sixteen parity pages
	layout := paperLayout(t)
	coord, nodes := sizedCluster(t, layout, pages, pageSize, 8<<10, false)
	shadow, err := NewShadow(layout, pages, pageSize, 12345)
	if err != nil {
		t.Fatal(err)
	}
	shadowRounds(t, coord, shadow, 1)
	g := layout.Groups[0]
	member, parityNode := g.Members[0], g.ParityNodes[0]
	committed, _, _ := readBlock(t, coord.addrs[parityNode], "parity", "", g.Index)
	img := len(committed)
	dial := func() *transport.Conn {
		c, err := transport.Dial(coord.addrs[parityNode])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	sender, aborter, reader := dial(), dial(), dial()

	const count, rounds = 8, 6
	chunkLen := img / count
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(stop)
		for r := 0; r < rounds; r++ {
			for i := 0; i < count; i++ {
				c := wire.Chunk{
					Offset: uint64(i * chunkLen), Total: uint64(img), Index: uint32(i), Count: count,
					RawLen: uint32(chunkLen), Data: bytes.Repeat([]byte{byte(r*count + i + 1)}, chunkLen),
				}
				// A stream an abort cut short restarts at whatever index comes
				// next; a conflict with a half-dropped stream is not possible,
				// since every round's stream has the same shape.
				if _, err := sender.Call(&wire.Message{
					Type: wire.MsgDeltaChunk, Epoch: coord.Epoch() + 1, Group: int32(g.Index), VM: member,
					Payload: wire.EncodeChunk(&c),
				}); err != nil {
					errs <- err
					return
				}
			}
		}
		errs <- nil
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			if _, err := aborter.Call(&wire.Message{Type: wire.MsgAbort, Epoch: coord.Epoch() + 1}); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			resp, err := reader.Call(&wire.Message{
				Type: wire.MsgReadChunk, Text: "parity", Group: int32(g.Index), Arg: uint64(img),
			})
			if err != nil {
				errs <- err
				return
			}
			c, err := wire.DecodeChunk(resp.Payload)
			if err == nil && !bytes.Equal(c.Data, committed) {
				err = fmt.Errorf("a parity read served staged bytes")
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := aborter.Call(&wire.Message{Type: wire.MsgAbort, Epoch: coord.Epoch() + 1}); err != nil {
		t.Fatal(err)
	}
	nodes[parityNode].mu.Lock()
	ks := nodes[parityNode].keepers[g.Index]
	nodes[parityNode].mu.Unlock()
	ks.mu.Lock()
	staged, held, size := ks.keeper.StagedPages(), ks.keeper.Footprint(), ks.keeper.Size()
	ks.mu.Unlock()
	if staged != 0 || len(ks.streams) != 0 {
		t.Fatalf("after the last abort the keeper holds %d staged pages and %d streams", staged, len(ks.streams))
	}
	if held > 2*size {
		t.Fatalf("the keeper holds %d bytes for a %d-byte block: more than one staged copy of it", held, size)
	}
	shadowRounds(t, coord, shadow, 1)
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatal(err)
	}
}
