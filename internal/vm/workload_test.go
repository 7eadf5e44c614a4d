package vm

import (
	"testing"
)

func TestUniformSpreadsWrites(t *testing.T) {
	m, _ := NewMachine("x", 256, 64)
	w := NewUniform(1)
	Run(w, m, 2000)
	// With 2000 uniform writes over 256 pages, the dirty set should be
	// nearly full (coupon-collector: expected ~255.9 unique pages).
	if m.DirtyCount() < 240 {
		t.Errorf("uniform dirty count %d, want near 256", m.DirtyCount())
	}
}

func TestSequentialDirtyCountExact(t *testing.T) {
	m, _ := NewMachine("x", 100, 64)
	w := NewSequential()
	Run(w, m, 60)
	if m.DirtyCount() != 60 {
		t.Errorf("sequential 60 steps dirtied %d pages, want 60", m.DirtyCount())
	}
	Run(w, m, 60) // wraps: total unique = 100
	if m.DirtyCount() != 100 {
		t.Errorf("after wrap dirtied %d, want 100", m.DirtyCount())
	}
}

func TestZipfConcentratesWrites(t *testing.T) {
	m, _ := NewMachine("x", 1024, 64)
	w, err := NewZipf(1024, 1.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	Run(w, m, 2000)
	// Skewed access: unique pages should be far below the uniform case.
	if m.DirtyCount() > 600 {
		t.Errorf("zipf dirtied %d of 1024 pages; expected strong concentration", m.DirtyCount())
	}
	if m.DirtyCount() == 0 {
		t.Error("zipf dirtied nothing")
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1.5, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewZipf(10, 1.0, 1); err == nil {
		t.Error("s=1 should fail")
	}
}

func TestPhasedMovesWorkingSet(t *testing.T) {
	m, _ := NewMachine("x", 1000, 64)
	w, err := NewPhased(500, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	Run(w, m, 500) // phase 0: pages [0,100)
	first := m.DirtyPages()
	for _, p := range first {
		if p >= 100 {
			t.Fatalf("phase 0 touched page %d outside [0,100)", p)
		}
	}
	m.BeginEpoch()
	Run(w, m, 500) // phase 1: pages [100,200)
	for _, p := range m.DirtyPages() {
		if p < 100 || p >= 200 {
			t.Fatalf("phase 1 touched page %d outside [100,200)", p)
		}
	}
}

func TestPhasedValidation(t *testing.T) {
	if _, err := NewPhased(0, 0.5, 1); err == nil {
		t.Error("phaseLen=0 should fail")
	}
	if _, err := NewPhased(10, 0, 1); err == nil {
		t.Error("setFrac=0 should fail")
	}
	if _, err := NewPhased(10, 1.5, 1); err == nil {
		t.Error("setFrac>1 should fail")
	}
}

func TestWorkloadNames(t *testing.T) {
	z, _ := NewZipf(10, 1.5, 1)
	p, _ := NewPhased(10, 0.5, 1)
	for _, w := range []Workload{NewUniform(1), NewSequential(), z, p} {
		if w.Name() == "" {
			t.Errorf("%T has empty name", w)
		}
	}
}
