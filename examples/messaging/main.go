// Messaging: the consistency half of the paper's Sec. IV-A — "coordinate a
// consistent distributed checkpoint". A producer VM streams sequenced
// messages to a consumer VM over FIFO channels; the coordinated checkpoint
// drains in-flight messages before capture, and recovery discards the
// post-checkpoint in-flight ones alongside the rolled-back sender state.
// The consumer asserts gap-free, duplicate-free delivery through checkpoint,
// failure, rollback, and reconstruction.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"dvdc"
	"dvdc/internal/comm"
	"dvdc/internal/runtime"
)

// app couples an inter-VM message network to a cluster. Its checkpoint
// drains every channel into the receivers before the round captures, so the
// checkpointed cut has empty channels; its recovery discards the messages in
// flight, sent after the committed cut by senders that roll back to before
// the sends, which keeps sends and receives exactly consistent.
type app struct {
	cl  *runtime.Cluster
	net *comm.Network
}

// send emits the producer's next message and advances its counter (page 0
// bytes [0:8] hold the counter, part of the checkpointed state).
func (a *app) send(producer, consumer string) error {
	m, err := a.cl.Machine(producer)
	if err != nil {
		return err
	}
	var next uint64
	m.MutatePage(0, func(p []byte) {
		next = binary.LittleEndian.Uint64(p[:8]) + 1
		binary.LittleEndian.PutUint64(p[:8], next)
	})
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint64(payload, next)
	return a.net.Send(producer, consumer, payload)
}

// deliver is the consumer's receive: it checks sequence continuity and
// records the sequence in the consumer's page 0.
func (a *app) deliver(msg comm.Message) error {
	dst, err := a.cl.Machine(msg.Dst)
	if err != nil {
		return err
	}
	seq := binary.LittleEndian.Uint64(msg.Payload)
	var bad error
	dst.MutatePage(0, func(p []byte) {
		last := binary.LittleEndian.Uint64(p[:8])
		if seq != last+1 {
			bad = fmt.Errorf("GAP/DUP: %s got %d after %d", msg.Dst, seq, last)
			return
		}
		binary.LittleEndian.PutUint64(p[:8], seq)
	})
	return bad
}

// checkpoint drains the channels, then commits a round.
func (a *app) checkpoint() error {
	if _, err := a.net.DrainAll(a.deliver); err != nil {
		return err
	}
	return a.cl.Checkpoint()
}

// fail kills a node, recovers the cluster to the committed cut and drops the
// messages sent after it.
func (a *app) fail(node int) error {
	a.cl.Kill(node)
	if _, err := a.cl.RecoverNodes(node); err != nil {
		return err
	}
	a.net.Clear()
	return nil
}

// counter reads a VM's page-0 counter.
func (a *app) counter(name string) uint64 {
	m, err := a.cl.Machine(name)
	if err != nil {
		log.Fatal(err)
	}
	return binary.LittleEndian.Uint64(m.Page(0)[:8])
}

func main() {
	layout, err := dvdc.NewDVDCLayoutGroups(6, 1, 1, 3)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := dvdc.NewCluster(layout, 16, 4096)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	a := &app{cl: cl, net: comm.NewNetwork()}
	producer, consumer := layout.VMs[0].Name, layout.VMs[4].Name
	send := func(k int) {
		for i := 0; i < k; i++ {
			if err := a.send(producer, consumer); err != nil {
				log.Fatal(err)
			}
		}
	}

	send(100)
	if err := a.checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after checkpoint: producer sent %d, consumer received %d, in flight %d\n",
		a.counter(producer), a.counter(consumer), a.net.InFlight())

	send(40) // uncommitted sends, left in flight
	v, _ := cl.Layout().VM(producer)
	fmt.Printf("sent 40 more (in flight %d); killing node %d (hosts the producer)...\n",
		a.net.InFlight(), v.Node)
	if err := a.fail(v.Node); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after recovery: producer counter %d, consumer counter %d, in flight %d\n",
		a.counter(producer), a.counter(consumer), a.net.InFlight())

	send(25)
	if err := a.checkpoint(); err != nil {
		log.Fatal(err) // a gap or duplicate would surface here
	}
	fmt.Printf("resumed cleanly: producer %d == consumer %d, no gaps, no duplicates\n",
		a.counter(producer), a.counter(consumer))
}
