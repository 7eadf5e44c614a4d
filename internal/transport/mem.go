package transport

import (
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// MemNetwork is an in-memory network: listeners keyed by address, and dials
// that hand the caller one end of a net.Pipe and the listener the other. Its
// Listen and Dial are a ListenFunc and a DialFunc, so servers, pools and the
// runtime's daemons run over it unchanged, in one process and without
// sockets. Closing a listener takes its address off the network: later dials
// are refused, which is how a killed daemon looks, and the address is free to
// listen on again, which is how a restarted one comes back.
type MemNetwork struct {
	mu  sync.Mutex
	lns map[string]*memListener
}

// NewMemNetwork returns an empty in-memory network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{lns: map[string]*memListener{}}
}

// Listen opens a listener at addr, which must not already be listening.
func (m *MemNetwork) Listen(addr string) (net.Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.lns[addr]; ok {
		return nil, &net.OpError{Op: "listen", Net: "mem", Addr: memAddr(addr), Err: syscall.EADDRINUSE}
	}
	l := &memListener{net: m, addr: addr, conns: make(chan net.Conn), done: make(chan struct{})}
	m.lns[addr] = l
	return l, nil
}

// Dial connects to the listener at addr, waiting at most timeout (0: no
// bound) for it to accept. A dial to an address nobody listens on, or whose
// listener closes before accepting, is refused.
func (m *MemNetwork) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	m.mu.Lock()
	l := m.lns[addr]
	m.mu.Unlock()
	refused := &net.OpError{Op: "dial", Net: "mem", Addr: memAddr(addr), Err: syscall.ECONNREFUSED}
	if l == nil {
		return nil, refused
	}
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, refused
	case <-expired:
		client.Close()
		server.Close()
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: memAddr(addr), Err: os.ErrDeadlineExceeded}
	}
}

// memListener is one address's listener: Accept takes the server ends of the
// dials made to it.
type memListener struct {
	net     *MemNetwork
	addr    string
	conns   chan net.Conn
	done    chan struct{}
	closing sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close frees the address and refuses the dials waiting on it. It is
// idempotent.
func (l *memListener) Close() error {
	l.closing.Do(func() {
		l.net.mu.Lock()
		delete(l.net.lns, l.addr)
		l.net.mu.Unlock()
		close(l.done)
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

// memAddr is an address on a MemNetwork.
type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }
