package comm

import (
	"fmt"
	"testing"
)

func TestSendDeliverFIFO(t *testing.T) {
	n := NewNetwork()
	for i := 0; i < 5; i++ {
		if err := n.Send("a", "b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n.InFlight() != 5 {
		t.Fatalf("InFlight = %d", n.InFlight())
	}
	var got []byte
	k, err := n.DeliverTo("b", func(m Message) error {
		got = append(got, m.Payload[0])
		return nil
	})
	if err != nil || k != 5 {
		t.Fatalf("delivered %d, %v", k, err)
	}
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
	if n.InFlight() != 0 {
		t.Error("queue not emptied")
	}
}

func TestDeliverToOnlyTargetsDst(t *testing.T) {
	n := NewNetwork()
	n.Send("a", "b", []byte{1})
	n.Send("a", "c", []byte{2})
	k, err := n.DeliverTo("b", func(Message) error { return nil })
	if err != nil || k != 1 {
		t.Fatalf("delivered %d, %v", k, err)
	}
	if n.InFlight() != 1 {
		t.Errorf("InFlight = %d, want 1 (message for c)", n.InFlight())
	}
}

func TestDrainAllEmptiesNetwork(t *testing.T) {
	n := NewNetwork()
	n.Send("a", "b", []byte{1})
	n.Send("b", "a", []byte{2})
	n.Send("c", "b", []byte{3})
	seen := map[string]int{}
	k, err := n.DrainAll(func(m Message) error {
		seen[m.Dst]++
		return nil
	})
	if err != nil || k != 3 {
		t.Fatalf("drained %d, %v", k, err)
	}
	if seen["a"] != 1 || seen["b"] != 2 {
		t.Errorf("delivery map: %v", seen)
	}
	if n.InFlight() != 0 {
		t.Error("network not empty")
	}
}

func TestHandlerErrorStopsDelivery(t *testing.T) {
	n := NewNetwork()
	n.Send("a", "b", []byte{1})
	n.Send("a", "b", []byte{2})
	calls := 0
	_, err := n.DeliverTo("b", func(Message) error {
		calls++
		return fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("handler error swallowed")
	}
	if calls != 1 {
		t.Errorf("handler called %d times, want 1", calls)
	}
}

func TestClearDiscards(t *testing.T) {
	n := NewNetwork()
	n.Send("a", "b", []byte{1})
	n.Send("a", "c", []byte{2})
	if got := n.Clear(); got != 2 {
		t.Errorf("Clear = %d", got)
	}
	if n.InFlight() != 0 {
		t.Error("not cleared")
	}
}

func TestSendValidation(t *testing.T) {
	n := NewNetwork()
	if err := n.Send("", "b", nil); err == nil {
		t.Error("empty src accepted")
	}
	if err := n.Send("a", "a", nil); err == nil {
		t.Error("self-send accepted")
	}
}

func TestPayloadCopied(t *testing.T) {
	n := NewNetwork()
	buf := []byte{7}
	n.Send("a", "b", buf)
	buf[0] = 99
	n.DeliverTo("b", func(m Message) error {
		if m.Payload[0] != 7 {
			t.Error("payload aliased caller buffer")
		}
		return nil
	})
}
