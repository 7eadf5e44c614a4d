package diskfull

import (
	"testing"

	"dvdc/internal/analytic"
	"dvdc/internal/cluster"
	"dvdc/internal/core"
	"dvdc/internal/failure"
	"dvdc/internal/storage"
	"dvdc/internal/vm"
)

func testScheme(t *testing.T, local bool) *Scheme {
	t.Helper()
	plat, err := analytic.DefaultPlatform(4)
	if err != nil {
		t.Fatal(err)
	}
	spec := vm.Spec{Name: "g", ImageBytes: 1 << 28, Dirty: vm.FullImageDirty{ImageBytes: 1 << 28}}
	s, err := New(plat, storage.DefaultNAS(), 12, 3, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	s.LocalRollback = local
	return s
}

func TestNewValidation(t *testing.T) {
	plat, _ := analytic.DefaultPlatform(4)
	spec := vm.Spec{Name: "g", ImageBytes: 1, Dirty: vm.FullImageDirty{ImageBytes: 1}}
	if _, err := New(plat, storage.DefaultNAS(), 12, 0, spec, false); err == nil {
		t.Error("vmsPerNode 0 should fail")
	}
	if _, err := New(plat, storage.DefaultNAS(), 2, 3, spec, false); err == nil {
		t.Error("vmsPerNode > vmCount should fail")
	}
}

func TestOverheadIncludesNASFlush(t *testing.T) {
	s := testScheme(t, false)
	ov, err := s.CheckpointOverhead(600)
	if err != nil {
		t.Fatal(err)
	}
	// 12 x 256 MiB through a GigE NAS: tens of seconds.
	if ov < 10 {
		t.Errorf("overhead %v s, expected NAS-bound tens of seconds", ov)
	}
}

func TestRecoveryLocalRollbackIsCheaper(t *testing.T) {
	nasOnly := testScheme(t, false)
	local := testScheme(t, true)
	a, err := nasOnly.RecoveryTime(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := local.RecoveryTime(0)
	if err != nil {
		t.Fatal(err)
	}
	if b >= a {
		t.Errorf("local rollback %v should beat NAS-only %v", b, a)
	}
	// The physical floor: one image at the array's full read bandwidth.
	if floor := float64(nasOnly.Spec.ImageBytes) / nasOnly.NAS.Array.ReadBps; b < floor {
		t.Errorf("recovery %v below physical floor %v", b, floor)
	}
}

func TestEndToEndRunAgainstDVDC(t *testing.T) {
	// The E12 shape in miniature: identical failure schedules, disk-full
	// completes later than DVDC.
	plat, _ := analytic.DefaultPlatform(4)
	df := testScheme(t, false)

	mkSched := func() *failure.NodeSchedule {
		s, err := failure.NewPoissonNodes(4, 100000, 42)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	resDF, err := core.Run(core.Config{
		JobSeconds: 200000, Interval: 1500, DetectSec: 1,
		Schedule: mkSched(), Scheme: df,
	})
	if err != nil {
		t.Fatal(err)
	}

	layout, err := cluster.Paper12VM()
	if err != nil {
		t.Fatal(err)
	}
	spec := vm.Spec{
		Name: "g", ImageBytes: 1 << 28,
		Dirty: vm.SaturatingDirty{WriteRate: 1 << 20, WSSBytes: 1 << 25},
	}
	dvdc, err := core.NewDVDCScheme(plat, layout, spec)
	if err != nil {
		t.Fatal(err)
	}
	resDV, err := core.Run(core.Config{
		JobSeconds: 200000, Interval: 300, DetectSec: 1,
		Schedule: mkSched(), Scheme: dvdc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resDV.Completion >= resDF.Completion {
		t.Errorf("DVDC completion %v not below disk-full %v", resDV.Completion, resDF.Completion)
	}
}
