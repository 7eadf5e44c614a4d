package dvdc

// Smoke tests for the command-line binaries: build them with the local
// toolchain, run a real multi-process DVDC session on loopback, kill a
// daemon, and verify the controller recovers. Skipped with -short.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCmd compiles one of the cmd/ binaries into dir.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCmdSmokeDistributedSession(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test")
	}
	dir := t.TempDir()
	nodeBin := buildCmd(t, dir, "dvdcnode")
	ctlBin := buildCmd(t, dir, "dvdcctl")

	// Start four daemons on ephemeral ports and read their addresses.
	var addrs []string
	var procs []*exec.Cmd
	for i := 0; i < 4; i++ {
		cmd := exec.Command(nodeBin, "-listen", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cmd)
		sc := bufio.NewScanner(stdout)
		addrCh := make(chan string, 1)
		go func() {
			for sc.Scan() {
				line := sc.Text()
				if strings.Contains(line, "listening on ") {
					addrCh <- strings.TrimSpace(strings.SplitAfter(line, "listening on ")[1])
					return
				}
			}
			addrCh <- ""
		}()
		select {
		case a := <-addrCh:
			if a == "" {
				t.Fatalf("daemon %d printed no address", i)
			}
			addrs = append(addrs, a)
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon %d did not report its address", i)
		}
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
	})

	// Run three checkpointed rounds, then have the controller treat node 2
	// as dead and recover around it (the runtime's own tests cover real TCP
	// death; here the whole multi-process pipeline is what's under test).
	ctl := exec.Command(ctlBin,
		"-nodes", strings.Join(addrs, ","),
		"-rounds", "3", "-steps", "100", "-kill", "2", "-pages", "32")
	out, err := ctl.CombinedOutput()
	text := string(out)
	if err != nil {
		t.Fatalf("dvdcctl: %v\n%s", err, text)
	}
	for _, want := range []string{
		"configured 4 nodes, 12 VMs, 4 groups",
		"round 3: epoch 3: prepare ",
		"B shipped",
		"phase timings:",
		"recovery complete: 12/12 VM states verified",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("dvdcctl output missing %q:\n%s", want, text)
		}
	}
}

// scanForPrefix reads lines from r until one contains marker and sends the
// text after the marker (or "" at EOF).
func scanForPrefix(r *bufio.Scanner, marker string) chan string {
	ch := make(chan string, 1)
	go func() {
		for r.Scan() {
			if line := r.Text(); strings.Contains(line, marker) {
				ch <- strings.TrimSpace(strings.SplitAfter(line, marker)[1])
				return
			}
		}
		ch <- ""
	}()
	return ch
}

func waitLine(t *testing.T, ch chan string, what string) string {
	t.Helper()
	select {
	case s := <-ch:
		if s == "" {
			t.Fatalf("%s: stream ended before the expected line", what)
		}
		return s
	case <-time.After(15 * time.Second):
		t.Fatalf("%s: timed out", what)
	}
	return ""
}

// TestCmdSmokeTelemetry runs the full telemetry plane across processes: three
// daemons and a paced controller session, each with -obs-addr :0 (the bound
// address is discovered from the canonical "obs listening on" stderr line),
// then `dvdcctl top -once` scraping all four endpoints must merge a
// single-rooted, closed round trace and exit zero.
func TestCmdSmokeTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test")
	}
	dir := t.TempDir()
	nodeBin := buildCmd(t, dir, "dvdcnode")
	ctlBin := buildCmd(t, dir, "dvdcctl")

	var nodeAddrs, obsAddrs []string
	var procs []*exec.Cmd
	for i := 0; i < 3; i++ {
		cmd := exec.Command(nodeBin, "-listen", "127.0.0.1:0", "-obs-addr", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cmd)
		addrCh := scanForPrefix(bufio.NewScanner(stdout), "listening on ")
		obsCh := scanForPrefix(bufio.NewScanner(stderr), "obs listening on ")
		nodeAddrs = append(nodeAddrs, waitLine(t, addrCh, fmt.Sprintf("daemon %d address", i)))
		obsAddrs = append(obsAddrs, waitLine(t, obsCh, fmt.Sprintf("daemon %d obs address", i)))
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
	})

	// A paced session stays alive while top scrapes it.
	pmDir := filepath.Join(dir, "postmortems")
	ctl := exec.Command(ctlBin,
		"-nodes", strings.Join(nodeAddrs, ","),
		"-rounds", "500", "-steps", "50", "-pages", "32",
		"-round-interval", "200ms",
		"-obs-addr", "127.0.0.1:0",
		"-postmortem-dir", pmDir)
	ctlOut, err := ctl.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	ctlErr, err := ctl.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctl.Process.Kill()
		ctl.Wait()
	})
	coordObs := waitLine(t, scanForPrefix(bufio.NewScanner(ctlErr), "obs listening on "), "controller obs address")
	obsAddrs = append(obsAddrs, coordObs)
	// Two closed rounds guarantee the scrape sees a finished round tree.
	waitLine(t, scanForPrefix(bufio.NewScanner(ctlOut), "round 2:"), "second round")

	top := exec.Command(ctlBin, "top", "-scrape", strings.Join(obsAddrs, ","), "-once")
	out, err := top.CombinedOutput()
	text := string(out)
	if err != nil {
		t.Fatalf("dvdcctl top -once: %v\n%s", err, text)
	}
	for _, want := range []string{
		"dvdc cluster telemetry — 4 source(s)",
		"round trace ",
		"[CLOSED]",
		"LANE",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("top output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "DOWN") {
		t.Errorf("top reports a down source:\n%s", text)
	}

	// No failure happened, so the postmortem dir must hold no bundles and the
	// renderer must say so.
	pm := exec.Command(ctlBin, "postmortem", "-dir", pmDir)
	if out, err := pm.CombinedOutput(); err == nil || !strings.Contains(string(out), "no postmortem bundles") {
		t.Errorf("postmortem on a clean session = (%v)\n%s", err, out)
	}
}

func TestCmdSmokeSimAndBench(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test")
	}
	dir := t.TempDir()
	simBin := buildCmd(t, dir, "dvdcsim")
	benchBin := buildCmd(t, dir, "dvdcbench")

	out, err := exec.Command(simBin, "-scheme", "dvdc", "-job", "20000", "-interval", "200").CombinedOutput()
	if err != nil {
		t.Fatalf("dvdcsim: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "completion") {
		t.Errorf("dvdcsim output: %s", out)
	}

	out, err = exec.Command(benchBin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("dvdcbench -list: %v\n%s", err, out)
	}
	for i := 1; i <= 20; i++ {
		if !strings.Contains(string(out), fmt.Sprintf("E%d ", i)) {
			t.Errorf("dvdcbench -list missing E%d:\n%s", i, out)
		}
	}

	out, err = exec.Command(benchBin, "-exp", "E3").CombinedOutput()
	if err != nil {
		t.Fatalf("dvdcbench -exp E3: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "single-failure survival") {
		t.Errorf("E3 output: %s", out)
	}

	// -out writes the artifact files, including a PNG for figures.
	artDir := filepath.Join(dir, "fig")
	if out, err := exec.Command(benchBin, "-exp", "E1", "-points", "40", "-out", artDir).CombinedOutput(); err != nil {
		t.Fatalf("dvdcbench -out: %v\n%s", err, out)
	}
	for _, f := range []string{"e1.txt", "e1.csv", "e1.png"} {
		if _, err := os.Stat(filepath.Join(artDir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
}

// TestCmdSmokeTraceSinkError pins that a trace sink that cannot be written
// fails the soak: the sink's write error must not be swallowed into a clean
// exit that claims the spans were written.
func TestCmdSmokeTraceSinkError(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	soakBin := buildCmd(t, t.TempDir(), "dvdcsoak")
	out, err := exec.Command(soakBin, "-rounds", "1", "-kill-mtbf", "0", "-trace-jsonl", "/dev/full").CombinedOutput()
	if err == nil {
		t.Fatalf("dvdcsoak -trace-jsonl /dev/full exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "write /dev/full") || strings.Contains(string(out), "spans written") {
		t.Errorf("dvdcsoak output does not report the sink error:\n%s", out)
	}
}
