package main

import (
	"flag"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dvdc/internal/runtime"
)

// TestFlagDefaultsMatchLibrary pins the satellite invariant that the CLI
// defaults and the library's defaulting function never drift: a user running
// `dvdcsoak` with no flags and a test calling runtime.RunSoak with a zero
// SoakConfig must get the same soak, because both paths resolve to the same
// runtime.DefaultSoak* constants.
func TestFlagDefaultsMatchLibrary(t *testing.T) {
	fs := flag.NewFlagSet("dvdcsoak", flag.ContinueOnError)
	registerFlags(fs)

	for name, want := range map[string]string{
		"rounds":      strconv.Itoa(runtime.DefaultSoakRounds),
		"steps":       strconv.FormatUint(runtime.DefaultSoakSteps, 10),
		"pages":       strconv.Itoa(runtime.DefaultSoakPages),
		"page-size":   strconv.Itoa(runtime.DefaultSoakPageSize),
		"rpc-timeout": runtime.DefaultSoakRPCTimeout.String(),
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("flag -%s not registered", name)
		}
		if f.DefValue != want {
			t.Errorf("-%s default = %s, want library default %s", name, f.DefValue, want)
		}
	}

	// Shared flags must exist under their canonical spellings.
	for _, name := range []string{"obs-addr", "trace-jsonl", "postmortem-dir", "service", "adaptive"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}

	// -adaptive must default off: the advisor mutates placement and tuning,
	// which a reproduction run must opt into.
	if f := fs.Lookup("adaptive"); f != nil && f.DefValue != "false" {
		t.Errorf("-adaptive default = %s, want false", f.DefValue)
	}
}

// TestSmallPagesSoakClean runs the built command on 4-byte pages, smaller
// than the workloads' 8-byte stamp: every invariant must hold and the command
// must exit 0.
func TestSmallPagesSoakClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	bin := filepath.Join(t.TempDir(), "dvdcsoak")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-page-size", "4", "-rounds", "2", "-kill-mtbf", "0").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "all invariants held") {
		t.Fatalf("dvdcsoak -page-size 4: %v\n%s", err, out)
	}
}

// TestFlagValidation pins what validate refuses: a negative chunk size (the
// encoding is 0 = default, > 0 = bytes) and the service-only flags without
// -service. -adaptive runs under either driver.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{nil, true},
		{[]string{"-chunk-size", "256", "-chunk-faults", "2"}, true},
		{[]string{"-chunk-size", "-1"}, false},
		{[]string{"-controller-restarts", "1"}, false},
		{[]string{"-service", "-controller-restarts", "1"}, true},
		{[]string{"-service", "-adaptive"}, true},
	} {
		fs := flag.NewFlagSet("dvdcsoak", flag.ContinueOnError)
		f := registerFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if err := f.validate(); (err == nil) != tc.ok {
			t.Errorf("%v: validate() = %v, want ok=%v", tc.args, err, tc.ok)
		}
	}
}
