// Package netsim models cluster network timing at the granularity the
// paper's analysis needs: per-node links with bandwidth and latency, fan-in
// contention at a single receiver (the NAS bottleneck of the disk-full
// baseline), and the balanced all-to-all exchange DVDC's distributed parity
// performs.
//
// The model is deliberately flow-level rather than packet-level: the
// quantities entering the paper's equations are transfer completion times
// for known byte volumes, which a bandwidth-sharing model yields directly.
package netsim

import (
	"errors"
	"fmt"
	"math"
)

// Link is a full-duplex point of attachment with fixed bandwidth and
// propagation latency.
type Link struct {
	BandwidthBps float64 // bytes per second
	LatencySec   float64 // one-way propagation + stack latency
}

// GigE is a 1 Gb/s Ethernet link with 100 us latency, the era-typical
// cluster fabric of the paper's references.
var GigE = Link{BandwidthBps: 125e6, LatencySec: 100e-6}

// TenGigE is a 10 Gb/s link.
var TenGigE = Link{BandwidthBps: 1.25e9, LatencySec: 50e-6}

// Validate checks link parameters.
func (l Link) Validate() error {
	if l.BandwidthBps <= 0 || math.IsNaN(l.BandwidthBps) {
		return fmt.Errorf("netsim: invalid bandwidth %v", l.BandwidthBps)
	}
	if l.LatencySec < 0 || math.IsNaN(l.LatencySec) {
		return fmt.Errorf("netsim: invalid latency %v", l.LatencySec)
	}
	return nil
}

// TransferTime returns the time to push the given bytes through the link.
func (l Link) TransferTime(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.LatencySec + bytes/l.BandwidthBps
}

// Fabric is a non-blocking (full-bisection) switch connecting n nodes, each
// attached by NodeLink. Only edge links constrain transfers, which matches
// the paper's framing: the disk-full baseline is bottlenecked by the single
// NAS edge, the diskless scheme by the per-node edges.
type Fabric struct {
	Nodes    int
	NodeLink Link
}

// NewFabric validates and constructs a fabric.
func NewFabric(nodes int, link Link) (*Fabric, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("netsim: fabric needs > 0 nodes, got %d", nodes)
	}
	if err := link.Validate(); err != nil {
		return nil, err
	}
	return &Fabric{Nodes: nodes, NodeLink: link}, nil
}

// FanInTime is the completion time when `senders` nodes each push
// bytesPerSender to one receiver attached by recvLink: the receiver's edge
// serializes the aggregate.
func (f *Fabric) FanInTime(senders int, bytesPerSender float64, recvLink Link) (float64, error) {
	if senders < 0 {
		return 0, fmt.Errorf("netsim: negative sender count %d", senders)
	}
	if bytesPerSender < 0 {
		return 0, errors.New("netsim: negative transfer size")
	}
	if err := recvLink.Validate(); err != nil {
		return 0, err
	}
	if senders == 0 || bytesPerSender == 0 {
		return 0, nil
	}
	total := float64(senders) * bytesPerSender
	// Senders' own edges matter only if a single sender's share exceeds the
	// receiver edge; with equal shares the receiver edge dominates whenever
	// senders >= 1, but a slow sender link can still bound completion.
	senderTime := f.NodeLink.TransferTime(bytesPerSender)
	recvTime := recvLink.LatencySec + total/recvLink.BandwidthBps
	return math.Max(senderTime, recvTime), nil
}

// ExchangeTime is the completion time of a general exchange where node i
// must send egress[i] bytes and receive ingress[i] bytes, all flows
// proceeding in parallel through the non-blocking core. The slowest edge
// (in either direction) determines completion; links are full duplex.
func (f *Fabric) ExchangeTime(egress, ingress []float64) (float64, error) {
	if len(egress) != f.Nodes || len(ingress) != f.Nodes {
		return 0, fmt.Errorf("netsim: exchange wants %d entries, got %d/%d", f.Nodes, len(egress), len(ingress))
	}
	var worst float64
	any := false
	for i := 0; i < f.Nodes; i++ {
		if egress[i] < 0 || ingress[i] < 0 {
			return 0, errors.New("netsim: negative exchange volume")
		}
		if egress[i] > 0 || ingress[i] > 0 {
			any = true
		}
		dir := math.Max(egress[i], ingress[i])
		if dir > worst {
			worst = dir
		}
	}
	if !any {
		return 0, nil
	}
	return f.NodeLink.TransferTime(worst), nil
}
