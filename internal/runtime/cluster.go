package runtime

import (
	"bytes"
	"fmt"
	"slices"

	"dvdc/internal/cluster"
	"dvdc/internal/core"
	"dvdc/internal/transport"
	"dvdc/internal/vm"
)

// Cluster is a DVDC cluster in one process: a daemon per layout node and the
// embedded Coordinator that drives them, so its protocol operations are the
// runtime's own. The daemons run over whatever network their hooks open: an
// in-memory one (NewInProcess), or loopback TCP behind the soak's fault
// injector. It adds only what the runtime lacks in process: a VM's live
// machine, killing and restarting daemons, and a placement and parity check
// read straight from the daemons, all for use between protocol operations.
type Cluster struct {
	*Coordinator
	nodes   []*Node
	stopped []bool // Kill closed the daemon and no Start has replaced it
	opts    func(node int) NodeOptions
}

// startCluster starts a daemon for every node of layout, node n at addr(n)
// with the hooks opts(n), and a coordinator over the addresses they bound.
// The caller configures the coordinator and runs Setup.
func startCluster(layout *cluster.Layout, pages, pageSize int, seed int64, addr func(node int) string, opts func(node int) NodeOptions) (*Cluster, error) {
	addrs := map[int]string{}
	for n := 0; layout != nil && n < layout.Nodes; n++ {
		addrs[n] = addr(n)
	}
	coord, err := NewCoordinator(layout, addrs, pages, pageSize, seed)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{Coordinator: coord, nodes: make([]*Node, layout.Nodes), stopped: make([]bool, layout.Nodes), opts: opts}
	for n := range cl.nodes {
		if err := cl.Start(n); err != nil {
			cl.Close()
			return nil, err
		}
		addrs[n] = cl.nodes[n].Addr() // a ":0" port, bound before any pool dials
	}
	return cl, nil
}

// NewInProcess builds and configures a cluster on layout, pagesPerVM pages of
// pageSize bytes a VM, whose daemons and coordinator talk over an in-memory
// network: the runtime's protocol, byte for byte, without sockets.
func NewInProcess(layout *cluster.Layout, pagesPerVM, pageSize int) (*Cluster, error) {
	mem := transport.NewMemNetwork()
	cl, err := startCluster(layout, pagesPerVM, pageSize, 0,
		func(n int) string { return fmt.Sprintf("node%d", n) },
		func(int) NodeOptions { return NodeOptions{Dialer: mem.Dial, Listen: mem.Listen} })
	if err != nil {
		return nil, err
	}
	cl.SetDialer(mem.Dial)
	if err := cl.Setup(); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// Start starts a fresh, empty daemon for node at its address, with the
// options it was first started with: after Kill, Start then Repair returns
// the node to service.
func (cl *Cluster) Start(node int) error {
	d, err := NewNodeWith(cl.addrs[node], cl.opts(node))
	if err == nil {
		cl.nodes[node], cl.stopped[node] = d, false
	}
	return err
}

// Kill stops the nodes' daemons: their addresses refuse calls from then on, as
// a crashed host's do. RecoverNodes over them rebuilds what they held. A
// daemon already stopped stays so; Kill returns the nodes it stopped.
func (cl *Cluster) Kill(nodes ...int) (killed []int) {
	for _, n := range nodes {
		if !cl.stopped[n] {
			cl.nodes[n].Close()
			cl.stopped[n] = true
			killed = append(killed, n)
		}
	}
	return killed
}

// stoppedNodes lists, ascending, the nodes whose daemons Kill stopped and no
// Start has replaced.
func (cl *Cluster) stoppedNodes() []int {
	var out []int
	for n, down := range cl.stopped {
		if down {
			out = append(out, n)
		}
	}
	return out
}

// Close stops the coordinator and every daemon.
func (cl *Cluster) Close() {
	cl.Coordinator.Close()
	for _, d := range cl.nodes {
		if d != nil {
			d.Close()
		}
	}
}

// Machine returns a VM's live machine on the node hosting it, for a workload
// to run on. A recovery or a move replaces it: look it up again after one.
func (cl *Cluster) Machine(name string) (*vm.Machine, error) {
	v, ok := cl.Layout().VM(name)
	if !ok {
		return nil, fmt.Errorf("runtime: unknown VM %q", name)
	}
	ms, err := cl.nodes[v.Node].member(name)
	if err != nil {
		return nil, err
	}
	return ms.mem.Machine(), nil
}

// VerifyParity holds the cluster to its layout and its committed state: each
// member the layout places points at the layout's parity homes, and each
// parity block is kept where the layout homes it and equals a fresh MKeeper
// over its group's committed images. It returns the first violation.
func (cl *Cluster) VerifyParity() error {
	l := cl.Layout()
	for _, g := range l.Groups {
		images := map[string][]byte{}
		for _, name := range g.Members {
			v, _ := l.VM(name)
			ms, err := cl.nodes[v.Node].member(name)
			if err != nil {
				return err
			}
			ms.mu.Lock()
			image, parity := ms.mem.CommittedImage(), slices.Clone(ms.cfg.ParityNodes)
			ms.mu.Unlock()
			images[name] = image
			if !slices.Equal(parity, g.ParityNodes) {
				return fmt.Errorf("%q on node %d points at parity homes %v, layout says %v", name, v.Node, parity, g.ParityNodes)
			}
		}
		for idx, pn := range g.ParityNodes {
			d := cl.nodes[pn]
			d.mu.Lock()
			ks, ok := d.keepers[g.Index]
			d.mu.Unlock()
			if !ok || ks.cfg.ParityIdx != idx {
				return fmt.Errorf("layout homes parity[%d] of group %d on node %d, which does not keep it", idx, g.Index, pn)
			}
			want, err := core.NewMKeeper(g.Index, idx, l.Tolerance, images)
			if err != nil {
				return err
			}
			ks.mu.Lock()
			same := bytes.Equal(ks.keeper.Parity(), want.Parity())
			ks.mu.Unlock()
			if !same {
				return fmt.Errorf("parity[%d] of group %d on node %d diverges from its members' committed images", idx, g.Index, pn)
			}
		}
	}
	return nil
}
