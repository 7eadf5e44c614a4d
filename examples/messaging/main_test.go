package main

import (
	"testing"

	"dvdc"
	"dvdc/internal/comm"
)

// The message-passing consistency property of Sec. IV-A: producers stamp
// monotonically increasing sequence numbers into messages and into their own
// memory; consumers record the last sequence received in theirs. Across
// checkpoints, in-flight drains, failures, rollbacks, and recoveries, the
// consumer must never observe a gap or a duplicate (deliver refuses one).

func newApp(t *testing.T) *app {
	t.Helper()
	layout, err := dvdc.NewDVDCLayoutGroups(6, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dvdc.NewCluster(layout, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return &app{cl: cl, net: comm.NewNetwork()}
}

func sendN(t *testing.T, a *app, n int, producer, consumer string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := a.send(producer, consumer); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMessagingConsistentAcrossFailure(t *testing.T) {
	a := newApp(t)
	vms := a.cl.Layout().VMs
	producer, consumer := vms[0].Name, vms[1].Name

	// Interval 1: sends, some delivered mid-interval, rest drained by the
	// checkpoint.
	sendN(t, a, 5, producer, consumer)
	if _, err := a.net.DeliverTo(consumer, a.deliver); err != nil {
		t.Fatal(err)
	}
	sendN(t, a, 3, producer, consumer)
	if err := a.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if a.net.InFlight() != 0 {
		t.Fatalf("checkpoint left %d messages in flight", a.net.InFlight())
	}

	// Interval 2: more sends, left in flight; then the producer's node dies.
	sendN(t, a, 4, producer, consumer)
	v, _ := a.cl.Layout().VM(producer)
	if err := a.fail(v.Node); err != nil {
		t.Fatal(err)
	}
	if a.net.InFlight() != 0 {
		t.Fatalf("rollback left %d orphan messages", a.net.InFlight())
	}

	// Post-recovery: both counters rolled back to the committed cut (8 sent
	// = 8 received). Resuming must continue seamlessly.
	if got := a.counter(producer); got != 8 {
		t.Errorf("producer counter after rollback = %d, want 8", got)
	}
	if got := a.counter(consumer); got != 8 {
		t.Errorf("consumer counter after rollback = %d, want 8", got)
	}
	sendN(t, a, 6, producer, consumer)
	if err := a.checkpoint(); err != nil {
		t.Fatalf("post-recovery round (seq continuity) failed: %v", err)
	}
	if got := a.counter(consumer); got != 14 {
		t.Errorf("consumer counter = %d, want 14", got)
	}
}

func TestMessagingConsumerFailure(t *testing.T) {
	// Kill the CONSUMER's node instead: its received-counter state is
	// reconstructed from parity and must still line up with the producer.
	a := newApp(t)
	vms := a.cl.Layout().VMs
	producer, consumer := vms[0].Name, vms[3].Name
	sendN(t, a, 7, producer, consumer)
	if err := a.checkpoint(); err != nil {
		t.Fatal(err)
	}
	sendN(t, a, 3, producer, consumer)
	v, _ := a.cl.Layout().VM(consumer)
	if err := a.fail(v.Node); err != nil {
		t.Fatal(err)
	}
	// Continue: the reconstructed consumer expects seq 8 next.
	sendN(t, a, 2, producer, consumer)
	if err := a.checkpoint(); err != nil {
		t.Fatalf("continuity after consumer reconstruction: %v", err)
	}
	if got := a.counter(consumer); got != 9 {
		t.Errorf("consumer counter = %d, want 9", got)
	}
}
