package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinkValidate(t *testing.T) {
	if err := GigE.Validate(); err != nil {
		t.Errorf("GigE invalid: %v", err)
	}
	bad := []Link{
		{BandwidthBps: 0, LatencySec: 0},
		{BandwidthBps: -1, LatencySec: 0},
		{BandwidthBps: 1, LatencySec: -1},
		{BandwidthBps: math.NaN(), LatencySec: 0},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: invalid link accepted", i)
		}
	}
}

func TestTransferTime(t *testing.T) {
	l := Link{BandwidthBps: 100, LatencySec: 0.5}
	if got := l.TransferTime(200); got != 2.5 {
		t.Errorf("TransferTime = %v, want 2.5", got)
	}
	if got := l.TransferTime(0); got != 0 {
		t.Errorf("TransferTime(0) = %v, want 0", got)
	}
}

func TestNewFabricValidation(t *testing.T) {
	if _, err := NewFabric(0, GigE); err == nil {
		t.Error("0 nodes should fail")
	}
	if _, err := NewFabric(4, Link{}); err == nil {
		t.Error("invalid link should fail")
	}
}

func TestFanInReceiverBottleneck(t *testing.T) {
	f, _ := NewFabric(8, Link{BandwidthBps: 1000, LatencySec: 0})
	// 8 senders x 1000 bytes into a 1000 B/s receiver: 8 seconds.
	got, err := f.FanInTime(8, 1000, Link{BandwidthBps: 1000, LatencySec: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Errorf("FanInTime = %v, want 8", got)
	}
}

func TestFanInSlowSenderDominates(t *testing.T) {
	f, _ := NewFabric(2, Link{BandwidthBps: 10, LatencySec: 0})
	// One sender at 10 B/s pushing 1000 bytes to a fast receiver: 100 s.
	got, err := f.FanInTime(1, 1000, Link{BandwidthBps: 1e9, LatencySec: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Errorf("FanInTime = %v, want 100", got)
	}
}

func TestFanInZeroCases(t *testing.T) {
	f, _ := NewFabric(4, GigE)
	for _, c := range []struct {
		s int
		b float64
	}{{0, 100}, {4, 0}} {
		got, err := f.FanInTime(c.s, c.b, GigE)
		if err != nil || got != 0 {
			t.Errorf("FanIn(%d,%v) = %v,%v; want 0,nil", c.s, c.b, got, err)
		}
	}
	if _, err := f.FanInTime(-1, 1, GigE); err == nil {
		t.Error("negative senders should fail")
	}
	if _, err := f.FanInTime(1, -1, GigE); err == nil {
		t.Error("negative bytes should fail")
	}
}

func TestExchangeTimeWorstEdge(t *testing.T) {
	f, _ := NewFabric(3, Link{BandwidthBps: 100, LatencySec: 0.1})
	// Node 1 receives 400 bytes: 4s + latency dominates.
	got, err := f.ExchangeTime([]float64{100, 0, 100}, []float64{0, 400, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.1 + 4.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ExchangeTime = %v, want %v", got, want)
	}
}

func TestExchangeTimeFullDuplex(t *testing.T) {
	f, _ := NewFabric(2, Link{BandwidthBps: 100, LatencySec: 0})
	// Equal send+receive on both: full duplex means max, not sum.
	got, err := f.ExchangeTime([]float64{100, 100}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("ExchangeTime = %v, want 1 (full duplex)", got)
	}
}

func TestExchangeTimeValidation(t *testing.T) {
	f, _ := NewFabric(2, GigE)
	if _, err := f.ExchangeTime([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := f.ExchangeTime([]float64{-1, 0}, []float64{0, 0}); err == nil {
		t.Error("negative volume should fail")
	}
	got, err := f.ExchangeTime([]float64{0, 0}, []float64{0, 0})
	if err != nil || got != 0 {
		t.Errorf("empty exchange = %v,%v; want 0,nil", got, err)
	}
}

// Property: fan-in time is monotone in sender count and bytes.
func TestQuickFanInMonotone(t *testing.T) {
	f, _ := NewFabric(64, GigE)
	fn := func(s1, s2 uint8, b1, b2 uint32) bool {
		sa, sb := int(s1%64), int(s2%64)
		if sa > sb {
			sa, sb = sb, sa
		}
		ba, bb := float64(b1), float64(b2)
		if ba > bb {
			ba, bb = bb, ba
		}
		t1, err1 := f.FanInTime(sa, ba, GigE)
		t2, err2 := f.FanInTime(sb, bb, GigE)
		return err1 == nil && err2 == nil && t1 <= t2+1e-9
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}
