package runtime

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
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
	chunked, cnodes := chunkedCluster(t, layout, 128)
	shadow, err := NewShadowWith(layout, 16, 64, 12345, "")
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
	if _, err := chunked.RecoverNodes(2); err != nil {
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
	coord, _ := chunkedCluster(t, layout, 0)
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
			resp, err := call(conn, &wire.Message{
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
	if resp, err := call(conn, &wire.Message{Type: wire.MsgCommit, Epoch: 1}); err != nil || resp.Type != wire.MsgCommitOK {
		t.Fatalf("commit: %v %v", resp, err)
	}

	pendingBuf := make([]byte, img)
	for _, c := range chunks {
		if err := ref.FoldInto(pendingBuf, member, int(c.Offset), c.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.DrainPendingRanges(pendingBuf, map[string]uint64{member: 1}, [][2]int{{0, img}}); err != nil {
		t.Fatal(err)
	}
	if blk, _, _ := readBlock(t, nil, coord.addrs[parityNode], "parity", "", 0); !bytes.Equal(blk, ref.Parity()) {
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

// TestRejectedBatchFoldsAcceptedFramesOnce sends batches [c0, c1, c2] whose
// c1 is bad — its CRC fails, or its flags byte is set under a valid CRC — and
// then the good batch. The keeper rejects each bad batch at c1 having
// accepted c0, so c0 is folded by the first and dropped as a duplicate after,
// nothing behind the bad frame is folded, the good batch folds c1 and c2, and
// committed parity equals a reference keeper that folded each chunk once.
func TestRejectedBatchFoldsAcceptedFramesOnce(t *testing.T) {
	layout := paperLayout(t)
	coord, _ := chunkedCluster(t, layout, 0)
	const img = 16 * 64
	const n = img / 4
	g := layout.Groups[0]
	member, parityNode := g.Members[0], g.ParityNodes[0]

	chunks := make([]wire.Chunk, 3)
	frames := make([][]byte, 3)
	for i := range chunks {
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(i*29 + j*3 + 7)
		}
		chunks[i] = wire.Chunk{Offset: uint64(i * n), Total: img, Index: uint32(i), Count: 3, RawLen: n, Data: data}
		frames[i] = wire.EncodeChunk(&chunks[i])
	}
	badCRC := append([]byte(nil), frames[1]...)
	badCRC[len(badCRC)-1] ^= 0xFF // c1's last data byte: its CRC no longer matches
	flagged := append([]byte(nil), frames[1]...)
	flagged[24] = 1 // the flags byte, re-sealed under a valid CRC
	binary.LittleEndian.PutUint32(flagged[wire.ChunkHeaderLen-4:], 0)
	binary.LittleEndian.PutUint32(flagged[wire.ChunkHeaderLen-4:], crc32.ChecksumIEEE(flagged))

	conn, err := transport.Dial(coord.addrs[parityNode])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(c1 []byte) error {
		payload := slices.Concat(frames[0], c1, frames[2])
		_, err := call(conn, &wire.Message{Type: wire.MsgDeltaChunk, Epoch: 1, Group: 0, VM: member, Payload: payload})
		return err
	}
	folded := func() (int64, int64) {
		t.Helper()
		st, err := coord.NodeStats(parityNode)
		if err != nil {
			t.Fatal(err)
		}
		return st.ChunksReceived, st.DupChunks
	}
	for i, c1 := range [][]byte{badCRC, flagged} {
		if err := send(c1); err == nil {
			t.Fatalf("bad batch %d was accepted", i)
		}
		if got, _ := folded(); got != 1 {
			t.Fatalf("after bad batch %d the keeper has folded %d chunks, want c0 alone", i, got)
		}
	}
	if err := send(frames[1]); err != nil {
		t.Fatalf("re-send of the good batch: %v", err)
	}
	if got, dups := folded(); got != 3 || dups != 2 {
		t.Fatalf("folded %d chunks with %d duplicates dropped, want 3 and 2", got, dups)
	}
	if resp, err := call(conn, &wire.Message{Type: wire.MsgCommit, Epoch: 1}); err != nil || resp.Type != wire.MsgCommitOK {
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
	if err := ref.DrainPendingRanges(pending, map[string]uint64{member: 1}, [][2]int{{0, img}}); err != nil {
		t.Fatal(err)
	}
	if blk, _, _ := readBlock(t, nil, coord.addrs[parityNode], "parity", "", 0); !bytes.Equal(blk, ref.Parity()) {
		t.Fatal("parity diverges: an accepted chunk of a rejected batch was not folded exactly once")
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
	coord, nodes := chunkedCluster(t, layout, 0)
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
			if _, err := call(sender, &wire.Message{
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
			if _, err := call(aborter, &wire.Message{Type: wire.MsgAbort, Epoch: 1}); err != nil {
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
	if resp, err := call(aborter, &wire.Message{Type: wire.MsgAbort, Epoch: 1}); err != nil || resp.Type != wire.MsgAbortOK {
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
	if _, err := coord.RecoverNodes(parityNode); err != nil {
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
	coord, nodes := sizedCluster(t, layout, pages, pageSize, 8<<10)
	shadow, err := NewShadowWith(layout, pages, pageSize, 12345, "")
	if err != nil {
		t.Fatal(err)
	}
	shadowRounds(t, coord, shadow, 1)
	g := layout.Groups[0]
	member, parityNode := g.Members[0], g.ParityNodes[0]
	committed, _, _ := readBlock(t, nil, coord.addrs[parityNode], "parity", "", g.Index)
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
				if _, err := call(sender, &wire.Message{
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
			if _, err := call(aborter, &wire.Message{Type: wire.MsgAbort, Epoch: coord.Epoch() + 1}); err != nil {
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
			resp, err := call(reader, &wire.Message{
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
	if _, err := call(aborter, &wire.Message{Type: wire.MsgAbort, Epoch: coord.Epoch() + 1}); err != nil {
		t.Fatal(err)
	}
	nodes[parityNode].mu.Lock()
	ks := nodes[parityNode].keepers[g.Index]
	nodes[parityNode].mu.Unlock()
	ks.mu.Lock()
	staged, streams, held, size := ks.keeper.StagedPages(), ks.keeper.Streams(), ks.keeper.Footprint(), ks.keeper.Size()
	ks.mu.Unlock()
	if staged != 0 || streams != 0 {
		t.Fatalf("after the last abort the keeper holds %d staged pages and %d streams", staged, streams)
	}
	if held > 2*size {
		t.Fatalf("the keeper holds %d bytes for a %d-byte block: more than one staged copy of it", held, size)
	}
	shadowRounds(t, coord, shadow, 1)
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatal(err)
	}
}
