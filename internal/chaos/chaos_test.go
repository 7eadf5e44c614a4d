package chaos

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dvdc/internal/obs"
	"dvdc/internal/wire"
)

// pipeThrough writes msgs through a faultConn over an in-memory pipe, straight
// to the conn as the transport does, and returns what the far side's
// ReadFrame saw: decoded messages until the first error (nil error means the
// writer closed cleanly first).
func pipeThrough(t *testing.T, inj *Injector, p Pair, msgs []*wire.Message) ([]*wire.Message, error) {
	t.Helper()
	client, server := net.Pipe()
	fc := newFaultConn(client, inj, p)
	type result struct {
		got []*wire.Message
		err error
	}
	done := make(chan result, 1)
	go func() {
		r := bufio.NewReader(server)
		var res result
		for {
			m := new(wire.Message)
			if err := wire.ReadFrame(r, m); err != nil {
				if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) &&
					!errors.Is(err, io.ErrClosedPipe) {
					res.err = err
				}
				// Unblock the writer (net.Pipe writes are synchronous) before
				// reporting, or a writer mid-frame would deadlock the test.
				server.Close()
				done <- res
				return
			}
			res.got = append(res.got, m)
		}
	}()
	var werr error
	for _, m := range msgs {
		if werr = wire.WriteFrame(fc, m, nil); werr != nil {
			break
		}
	}
	fc.Close()
	res := <-done
	server.Close()
	if res.err == nil && werr != nil {
		return res.got, werr
	}
	return res.got, res.err
}

func msgN(n int) *wire.Message {
	return &wire.Message{Type: wire.MsgType(1), Epoch: uint64(n), VM: fmt.Sprintf("vm%d", n)}
}

func TestCleanPassThrough(t *testing.T) {
	inj := New(1, Config{})
	msgs := []*wire.Message{msgN(1), msgN(2), msgN(3)}
	got, err := pipeThrough(t, inj, Pair{0, 1}, msgs)
	if err != nil {
		t.Fatalf("clean pass-through errored: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d frames, want 3", len(got))
	}
	for i, m := range got {
		if m.Epoch != uint64(i+1) || m.VM != fmt.Sprintf("vm%d", i+1) {
			t.Fatalf("frame %d mangled: %+v", i, m)
		}
	}
	if n := len(inj.Log()); n != 0 {
		t.Fatalf("clean run logged %d faults", n)
	}
}

// TestArmedCorruptYieldsTypedFrameError holds every armed traffic fault to one
// decision per frame. Each case arms its kind, then a Delay, and sends a frame
// whose payload is far past wire's inline size, so it leaves as several
// Writes, then a clean frame (over a fresh conn when the fault killed the
// first). The kind fires once, on the big frame; the Delay fires once, on the
// clean frame, which arrives intact. Each note names its frame's type and
// length on the wire.
func TestArmedCorruptYieldsTypedFrameError(t *testing.T) {
	big := &wire.Message{Type: wire.MsgDeltaChunk, Payload: bytes.Repeat([]byte{0xAB}, 200_000)}
	clean := &wire.Message{Type: wire.MsgCommit, Epoch: 9, VM: "vm9"}
	note := func(m *wire.Message) string {
		return fmt.Sprintf("%s frame, %d bytes", m.Type, 4+len(m.Encode()))
	}
	for _, k := range []Kind{Corrupt, Drop, Delay} {
		t.Run(k.String(), func(t *testing.T) {
			inj := New(1, Config{})
			p := Pair{Coordinator, 2}
			inj.Arm(p, k)
			inj.Arm(p, Delay)
			got, err := pipeThrough(t, inj, p, []*wire.Message{big, clean})
			switch k {
			case Corrupt:
				if !wire.IsDecodeErr(err) || len(got) != 0 {
					t.Fatalf("corrupted stream: %d frames, err %v, want none and wire.ErrFrame", len(got), err)
				}
			case Drop:
				if err == nil || len(got) != 0 {
					t.Fatalf("dropped frame: %d frames delivered, err %v", len(got), err)
				}
			case Delay:
				if err != nil || len(got) != 2 || !bytes.Equal(got[0].Payload, big.Payload) {
					t.Fatalf("delayed frames: %d delivered, err %v, want both intact", len(got), err)
				}
				got = got[1:]
			}
			if k != Delay {
				if got, err = pipeThrough(t, inj, p, []*wire.Message{clean}); err != nil {
					t.Fatalf("clean frame over a fresh conn: %v", err)
				}
			}
			if len(got) != 1 || got[0].Type != clean.Type || got[0].Epoch != clean.Epoch || got[0].VM != clean.VM {
				t.Fatalf("clean frame after the fault: %+v, want %+v", got, clean)
			}
			log := inj.Log()
			if len(log) != 2 || log[0].Kind != k || log[1].Kind != Delay || !log[0].Armed || !log[1].Armed {
				t.Fatalf("fault log %v, want armed %s then armed delay", log, k)
			}
			if !strings.HasSuffix(log[0].Note, note(big)) || !strings.HasSuffix(log[1].Note, note(clean)) {
				t.Fatalf("fault notes %q, %q, want them to end %q, %q", log[0].Note, log[1].Note, note(big), note(clean))
			}
			if inj.ArmedPending() != 0 {
				t.Fatalf("%d armed faults left", inj.ArmedPending())
			}
		})
	}
}

func TestArmedDropSeversConnection(t *testing.T) {
	inj := New(1, Config{})
	p := Pair{0, 1}
	inj.Arm(p, Drop)
	_, err := pipeThrough(t, inj, p, []*wire.Message{msgN(1)})
	if err == nil {
		t.Fatal("dropped frame was delivered")
	}
	if inj.Fired(-1, Drop) != 1 {
		t.Fatalf("fault log: %v, want one drop", inj.Log())
	}
}

func TestArmedFaultsFireFIFO(t *testing.T) {
	inj := New(1, Config{})
	p := Pair{0, 1}
	inj.Arm(p, Delay)
	inj.Arm(p, Corrupt)
	got, err := pipeThrough(t, inj, p, []*wire.Message{msgN(1), msgN(2), msgN(3)})
	if !wire.IsDecodeErr(err) {
		t.Fatalf("run ended with %v, want the second frame's wire.ErrFrame", err)
	}
	if len(got) != 1 || got[0].Epoch != 1 {
		t.Fatalf("got %d frames, want the delayed first one only", len(got))
	}
	log := inj.Log()
	if len(log) != 2 || log[0].Kind != Delay || log[1].Kind != Corrupt {
		t.Fatalf("fault order: %v, want delay then corrupt", log)
	}
	if !log[0].Armed || !log[1].Armed {
		t.Fatalf("armed flag missing: %v", log)
	}
}

func TestProbabilisticStreamIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) []string {
		inj := New(seed, Config{PCorrupt: 0.2, PDrop: 0.2, PDelay: 0.2})
		// Drive the decision stream directly (single goroutine, so the rng
		// order is exactly the call order).
		var kinds []string
		for f := 0; f < 200; f++ {
			d := inj.frameFault(Pair{0, 1}, 31, 0)
			kinds = append(kinds, d.kind.String())
		}
		return kinds
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at frame %d: %s vs %s", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-frame fault streams")
	}
}

func TestPairStreamsAreIndependent(t *testing.T) {
	// Interleaving draws on pair B must not shift pair A's stream.
	solo := New(99, Config{PDrop: 0.5})
	var alone []Kind
	for f := 0; f < 50; f++ {
		alone = append(alone, solo.frameFault(Pair{0, 1}, 31, 0).kind)
	}
	mixed := New(99, Config{PDrop: 0.5})
	var together []Kind
	for f := 0; f < 50; f++ {
		mixed.frameFault(Pair{2, 3}, 31, 0) // interleaved noise
		together = append(together, mixed.frameFault(Pair{0, 1}, 31, 0).kind)
	}
	for i := range alone {
		if alone[i] != together[i] {
			t.Fatalf("pair 0->1 stream perturbed by pair 2->3 at frame %d", i)
		}
	}
}

func TestPauseStopsProbabilisticButNotArmed(t *testing.T) {
	inj := New(7, Config{PDrop: 1.0})
	inj.Pause()
	p := Pair{0, 1}
	if d := inj.frameFault(p, 31, 0); d.kind != 0 {
		t.Fatalf("paused injector fired %s", d.kind)
	}
	inj.Arm(p, Drop)
	if d := inj.frameFault(p, 31, 0); d.kind != Drop || !d.armed {
		t.Fatalf("armed fault suppressed by pause: %+v", d)
	}
	inj.Resume()
	if d := inj.frameFault(p, 31, 0); d.kind != Drop {
		t.Fatalf("resume did not restore probabilistic injection: %+v", d)
	}
}

func TestPartitionRefusesDialsAndSeversConns(t *testing.T) {
	inj := New(1, Config{})
	// A real listener so the dialer path is exercised end to end.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 1024)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(c)
		}
	}()
	inj.Register(1, ln.Addr().String())
	dial := inj.Dialer(Coordinator)

	c, err := dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("pre-partition dial failed: %v", err)
	}
	inj.PartitionPair(Coordinator, 1)
	if _, err := c.Write([]byte{1, 2, 3, 4}); err == nil {
		t.Fatal("write on partitioned conn succeeded")
	}
	if _, err := dial(ln.Addr().String(), time.Second); err == nil {
		t.Fatal("dial across partition succeeded")
	}
	inj.HealPair(Coordinator, 1)
	c2, err := dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("post-heal dial failed: %v", err)
	}
	c2.Close()
	if inj.Counters().Get("dial-refused") != 1 {
		t.Fatalf("counters: %s, want dial-refused=1", inj.Counters())
	}
}

func TestKillPlanDeterministicAndBounded(t *testing.T) {
	build := func(seed int64) *KillPlan {
		p, err := PlanPoissonKills(8, 1, 40, 120, 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := build(5), build(5)
	if a.String() != b.String() {
		t.Fatalf("same seed, different plans:\n%s\n%s", a, b)
	}
	if a.TotalKills() == 0 {
		t.Fatal("MTBF 120s over 40 rounds of 10s injected no kills; plan degenerate")
	}
	for r := 0; r < a.Rounds(); r++ {
		v := a.Victims(r)
		if len(v) > 1 {
			t.Fatalf("round %d kills %v, want at most one victim", r, v)
		}
		for _, n := range v {
			if n < 0 || n >= 8 {
				t.Fatalf("round %d kills out-of-range node %d", r, n)
			}
		}
	}
	if c := build(6); c.String() == a.String() {
		t.Fatal("different seeds produced identical kill plans")
	}
	// Up to two victims a round (a tolerance-2 soak): the same failure
	// stream, and some round takes two nodes.
	two, err := PlanPoissonKills(8, 2, 40, 120, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	double := false
	for r := 0; r < two.Rounds(); r++ {
		v := two.Victims(r)
		if one := a.Victims(r); len(v) > 2 || len(one) > 0 && !slices.Contains(v, one[0]) {
			t.Fatalf("round %d kills %v with two allowed, %v with one", r, v, a.Victims(r))
		}
		double = double || len(v) == 2
	}
	if !double {
		t.Fatal("no round of a two-per-round plan kills two nodes")
	}
}

// TestFaultStringNamesNode pins that node-level faults log their node, not
// the unknown-peer pair they carry.
func TestFaultStringNamesNode(t *testing.T) {
	unknown := Pair{UnknownPeer, UnknownPeer}
	for _, tc := range []struct {
		f    Fault
		want string
	}{
		{Fault{Round: 2, Kind: Kill, Node: 3, Pair: unknown}, "round 2: kill node 3"},
		{Fault{Round: 4, Kind: Restart, Node: 3, Pair: unknown}, "round 4: restart node 3"},
		{Fault{Round: 1, Kind: Slow, Node: 1, Pair: unknown, Note: "delay 25ms/frame"}, "round 1: slow node 1 (delay 25ms/frame)"},
	} {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("Fault.String() = %q, want %q", got, tc.want)
		}
	}
	// Node 0 survives the injector's log: only pair faults mark Node -1.
	inj := New(1, Config{})
	inj.SlowNode(0, 25*time.Millisecond)
	if got, want := inj.Log()[0].String(), "round 0: slow node 0 (delay 25ms/frame)"; got != want {
		t.Errorf("logged slow fault = %q, want %q", got, want)
	}
}

func TestRecordKillRestartInLog(t *testing.T) {
	inj := New(1, Config{})
	tr := obs.NewTracer(16)
	inj.SetTracer(tr)
	inj.NextRound()
	inj.RecordKill(3)
	inj.NextRound()
	inj.RecordRestart(3)
	log := inj.Log()
	if len(log) != 2 {
		t.Fatalf("log has %d entries, want 2", len(log))
	}
	if log[0].Kind != Kill || log[0].Node != 3 || log[0].Round != 1 {
		t.Fatalf("kill entry wrong: %+v", log[0])
	}
	if log[1].Kind != Restart || log[1].Node != 3 || log[1].Round != 2 {
		t.Fatalf("restart entry wrong: %+v", log[1])
	}
	if got := inj.Counters().String(); got != "kill=1 restart=1" {
		t.Fatalf("counters: %q", got)
	}
	// Each harness-level fault is an instant root span in lane chaos.
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("tracer holds %d spans, want one per harness fault", len(spans))
	}
	for i, want := range []string{"chaos.kill", "chaos.restart"} {
		s := spans[i]
		if s.Name != want || s.Lane != "chaos" || s.Parent != 0 || !s.Instant() ||
			s.Attrs["node"] != "node3" || s.Attrs["round"] != strconv.Itoa(i+1) {
			t.Errorf("span %d = %+v, want an instant %s root for node3 in round %d", i, s, want, i+1)
		}
	}
}
