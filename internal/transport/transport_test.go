package transport

import (
	"fmt"
	"sync"
	"testing"

	"dvdc/internal/wire"
)

func echoServer(t *testing.T) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", func(req *wire.Message) (*wire.Message, error) {
		switch req.Type {
		case wire.MsgHello:
			return &wire.Message{Type: wire.MsgHelloOK, Epoch: req.Epoch, Payload: req.Payload}, nil
		case wire.MsgStep:
			return nil, fmt.Errorf("step not supported here")
		default:
			return &wire.Message{Type: req.Type, VM: req.VM}, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestCallRoundTrip(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := call(c, &wire.Message{Type: wire.MsgHello, Epoch: 9, Payload: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.MsgHelloOK || resp.Epoch != 9 || string(resp.Payload) != "hi" {
		t.Errorf("resp: %+v", resp)
	}
}

func TestHandlerErrorBecomesRemoteError(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := call(c, &wire.Message{Type: wire.MsgStep}); err == nil {
		t.Error("expected remote error")
	}
	// The connection must survive an error reply.
	if _, err := call(c, &wire.Message{Type: wire.MsgHello}); err != nil {
		t.Errorf("connection dead after error reply: %v", err)
	}
}

func TestConcurrentCallsSerialize(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := call(c, &wire.Message{Type: wire.MsgHello, Epoch: uint64(i)})
			if err != nil {
				errs <- err
				return
			}
			if resp.Epoch != uint64(i) {
				errs <- fmt.Errorf("epoch %d != %d", resp.Epoch, i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMultipleClients(t *testing.T) {
	s := echoServer(t)
	for i := 0; i < 8; i++ {
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := call(c, &wire.Message{Type: wire.MsgHello}); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port should fail")
	}
}

func TestListenNilHandler(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", nil); err == nil {
		t.Error("nil handler should fail")
	}
}

func TestServerCloseTerminatesClients(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := call(c, &wire.Message{Type: wire.MsgHello}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := call(c, &wire.Message{Type: wire.MsgHello}); err == nil {
		t.Error("call after server close should fail")
	}
}

func TestLargePayload(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 8<<20)
	for i := range big {
		big[i] = byte(i)
	}
	resp, err := call(c, &wire.Message{Type: wire.MsgHello, Payload: big})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Payload) != len(big) {
		t.Errorf("payload %d, want %d", len(resp.Payload), len(big))
	}
}

// call sends req over c and returns its reply in a message of its own.
func call(c *Conn, req *wire.Message) (*wire.Message, error) {
	resp := new(wire.Message)
	if err := c.CallInto(req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}
