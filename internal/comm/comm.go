// Package comm models the inter-VM communication that makes a distributed
// checkpoint need *coordination* in the first place. The paper's Sec. IV-A
// prescribes "a consistent distributed checkpoint (using the techniques of
// Section II)" before parity is computed; with FIFO channels between VMs,
// the classic blocking approach is: quiesce senders, drain every in-flight
// message into its receiver's memory, then capture. Channels are then empty
// at the checkpoint, so the captured cut is trivially consistent — and on a
// rollback, discarding the post-checkpoint in-flight messages restores
// exactly the committed global state (senders roll back to before those
// sends, so nothing is lost or duplicated).
package comm

import (
	"fmt"
	"sort"
)

// Message is one in-flight payload.
type Message struct {
	Src, Dst string
	Payload  []byte
}

// Network is a set of FIFO channels keyed by (src, dst). It is not safe for
// concurrent use; the application drives it from one goroutine, between the
// cluster's protocol operations.
type Network struct {
	queues map[[2]string][]Message
	count  int
}

// NewNetwork builds an empty network.
func NewNetwork() *Network {
	return &Network{queues: map[[2]string][]Message{}}
}

// Send enqueues a message from src to dst. The payload is copied.
func (n *Network) Send(src, dst string, payload []byte) error {
	if src == "" || dst == "" {
		return fmt.Errorf("comm: empty endpoint (src=%q dst=%q)", src, dst)
	}
	if src == dst {
		return fmt.Errorf("comm: self-send from %q", src)
	}
	k := [2]string{src, dst}
	n.queues[k] = append(n.queues[k], Message{Src: src, Dst: dst, Payload: append([]byte(nil), payload...)})
	n.count++
	return nil
}

// InFlight returns the number of undelivered messages.
func (n *Network) InFlight() int { return n.count }

// DeliverTo pops every pending message destined for dst, in FIFO order per
// channel (channels are visited in deterministic src order), invoking the
// handler for each. It returns how many messages were delivered. A handler
// error stops delivery with that error; already-handled messages stay
// delivered.
func (n *Network) DeliverTo(dst string, handler func(m Message) error) (int, error) {
	keys := make([][2]string, 0)
	for k := range n.queues {
		if k[1] == dst && len(n.queues[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i][0] < keys[j][0] })
	delivered := 0
	for _, k := range keys {
		q := n.queues[k]
		for len(q) > 0 {
			m := q[0]
			q = q[1:]
			n.queues[k] = q
			n.count--
			delivered++
			if err := handler(m); err != nil {
				return delivered, err
			}
		}
		delete(n.queues, k)
	}
	return delivered, nil
}

// DrainAll delivers every in-flight message, grouped by destination in
// deterministic order: the quiesce step of the blocking coordinated
// checkpoint. After it returns (without error) the network is empty.
func (n *Network) DrainAll(handler func(m Message) error) (int, error) {
	dsts := map[string]bool{}
	for k, q := range n.queues {
		if len(q) > 0 {
			dsts[k[1]] = true
		}
	}
	sorted := make([]string, 0, len(dsts))
	for d := range dsts {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	total := 0
	for _, d := range sorted {
		k, err := n.DeliverTo(d, handler)
		total += k
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Clear discards every in-flight message: the rollback rule. Messages sent
// after the last committed checkpoint vanish together with the sender state
// that produced them, so the restored cut has no orphan messages.
func (n *Network) Clear() int {
	dropped := n.count
	n.queues = map[[2]string][]Message{}
	n.count = 0
	return dropped
}
