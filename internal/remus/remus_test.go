package remus

import (
	"testing"

	"dvdc/internal/vm"
)

func TestSchemeOverheadBackpressure(t *testing.T) {
	spec := vm.Spec{
		Name: "hot", ImageBytes: 1 << 30,
		Dirty: vm.LinearDirty{RatePerSec: 500e6, CapBytes: 1 << 30}, // 500 MB/s dirt
	}
	s, err := NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	// A 1-second epoch dirties 500 MB; GigE drains 125 MB/s: heavy stall.
	ov, err := s.CheckpointOverhead(1)
	if err != nil {
		t.Fatal(err)
	}
	if ov < 2 {
		t.Errorf("overhead %v s, expected >= 2 s of backpressure", ov)
	}
	// A cool workload has near-pause-only overhead.
	cool := vm.Spec{Name: "cool", ImageBytes: 1 << 30, Dirty: vm.LinearDirty{RatePerSec: 1 << 20, CapBytes: 1 << 26}}
	cs, _ := NewScheme(cool)
	ov, err = cs.CheckpointOverhead(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ov > 0.05 {
		t.Errorf("cool overhead %v s, want small", ov)
	}
	if _, err := s.CheckpointOverhead(0); err == nil {
		t.Error("zero window should fail")
	}
}

func TestSchemeRecoveryConstant(t *testing.T) {
	spec := vm.Spec{Name: "g", ImageBytes: 1 << 30, Dirty: vm.LinearDirty{RatePerSec: 1, CapBytes: 1}}
	s, _ := NewScheme(spec)
	r, err := s.RecoveryTime(3)
	if err != nil || r != s.FailoverSec {
		t.Errorf("recovery = %v, %v", r, err)
	}
}

func TestSustainableEpoch(t *testing.T) {
	// 10 MB/s dirty rate over GigE: drain(e) = 10e6*e/125e6 + lat < e for
	// any e above ~latency/(1-0.08); the sustainable epoch should be tiny,
	// enabling Cully's tens-of-epochs-per-second.
	spec := vm.Spec{Name: "g", ImageBytes: 1 << 30, Dirty: vm.LinearDirty{RatePerSec: 10e6, CapBytes: 1 << 30}}
	s, _ := NewScheme(spec)
	e := s.SustainableEpoch()
	if e > 0.025 {
		t.Errorf("sustainable epoch %v s: should support ~40/s", e)
	}
	// A dirty rate above the link can never converge below the cap: epoch
	// must be large (the buffer only drains once dirtying saturates).
	hot := vm.Spec{Name: "h", ImageBytes: 1 << 30, Dirty: vm.LinearDirty{RatePerSec: 200e6, CapBytes: 1 << 28}}
	hs, _ := NewScheme(hot)
	if he := hs.SustainableEpoch(); he < e {
		t.Errorf("hot workload epoch %v should exceed cool %v", he, e)
	}
}

func TestMemoryFactor(t *testing.T) {
	if MemoryFactor != 2.0 {
		t.Error("Remus memory factor must be a full replica (2x)")
	}
}
