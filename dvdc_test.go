package dvdc

import (
	"testing"

	"dvdc/internal/core"
	"dvdc/internal/vm"
)

// The facade tests exercise the public API surface end to end; the deep
// behaviour is covered by each internal package's suite.

func TestFacadeLayouts(t *testing.T) {
	fs, err := NewFirstShotLayout(4)
	if err != nil || fs.Nodes != 5 {
		t.Errorf("first-shot: %v nodes=%d", err, fs.Nodes)
	}
	de, err := NewDedicatedLayout(4, 3)
	if err != nil || len(de.VMs) != 12 {
		t.Errorf("dedicated: %v", err)
	}
	dv, err := NewDVDCLayout(4, 1, 1)
	if err != nil || len(dv.Groups) != 4 {
		t.Errorf("dvdc: %v", err)
	}
	pg, err := NewDVDCLayoutGroups(8, 1, 2, 4)
	if err != nil || pg.Tolerance != 2 {
		t.Errorf("groups: %v", err)
	}
	pl, err := PaperLayout()
	if err != nil || len(pl.VMs) != 12 {
		t.Errorf("paper: %v", err)
	}
}

func TestFacadeClusterLifecycle(t *testing.T) {
	layout, err := PaperLayout()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(layout, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cl.Kill(1)
	if _, err := cl.RecoverNodes(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSimulate(t *testing.T) {
	layout, err := PaperLayout()
	if err != nil {
		t.Fatal(err)
	}
	plat, err := DefaultPlatform(layout.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	spec := vm.Spec{
		Name:       "facade",
		ImageBytes: 1 << 28,
		Dirty:      vm.SaturatingDirty{WriteRate: 1 << 20, WSSBytes: 1 << 24},
	}
	scheme, err := NewDVDCScheme(plat, layout, spec)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewPoissonFailures(layout.Nodes, 40000, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(core.Config{
		JobSeconds: 50000, Interval: 300, Schedule: sched, Scheme: scheme,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio < 1 {
		t.Errorf("ratio %v", res.Ratio)
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 20 {
		t.Fatalf("expected 20 experiments, got %d", len(ids))
	}
	p := ExperimentParams()
	p.SweepPoints = 20
	p.MCRuns = 2
	res, err := Experiment("E1", p)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "E1" || len(res.Text) == 0 {
		t.Error("E1 result malformed")
	}
	if _, err := Experiment("nope", p); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestFacadeDistributedRuntime(t *testing.T) {
	layout, err := NewDVDCLayoutGroups(4, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[int]string{}
	var closers []func() error
	for i := 0; i < layout.Nodes; i++ {
		n, err := NewNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = n.Addr()
		closers = append(closers, n.Close)
	}
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	coord, err := NewCoordinator(layout, addrs, 8, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Step(10); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if coord.Epoch() != 1 {
		t.Errorf("epoch %d", coord.Epoch())
	}
}
