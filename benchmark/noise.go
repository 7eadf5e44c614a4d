package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strings"
)

// runNoise runs the untraced suite n times, run i with seed+i (the acceptance
// driver varies the seed the same way), and prints for every workload x
// end-to-end metric how far identical code disagrees with itself: the spread
// of the n values (interquartile range over median, quartiles as Python's
// statistics.quantiles computes them) and the disagreement of the first half
// of the runs with the second half (their medians compared) — two sets of
// runs of one commit, which is what a parent-vs-change comparison would see
// if the change did nothing. NOISE.md is this table, checked in.
//
// Every run is a child process of its own, as the driver's runs are: the
// process-wide buffer pool and the heap's shape outlive a cluster, so a
// workload run after another in one process starts from a different memory
// state than it does alone (mem_bytes_per_image_byte reads up to a third
// higher).
func runNoise(out io.Writer, names []string, seed int64, seconds int, quick bool, n int) error {
	if n < 4 {
		return fmt.Errorf("-noise needs at least 4 runs (two halves of two), got %d", n)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	for i := 0; i < n; i++ {
		for _, name := range names {
			args := []string{"-workload", name, "-seed", fmt.Sprint(seed + int64(i)), "-seconds", fmt.Sprint(seconds)}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i+1, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var line struct {
				Correct bool
				Failed  int
				Metrics map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				return fmt.Errorf("%s run %d: last line: %w", name, i+1, err)
			}
			if !line.Correct {
				return fmt.Errorf("%s run %d: %d failed operations", name, i+1, line.Failed)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metric, m := range line.Metrics {
				values[name][metric] = append(values[name][metric], m.Value)
			}
			fmt.Fprintf(os.Stderr, "noise: run %d/%d of %s done\n", i+1, n, name)
		}
	}
	env := environment()
	fmt.Fprintf(out, "%d runs per workload, seeds %d..%d, nproc %s, GOMAXPROCS %s, GOGC %s, %s, commit %s\n\n",
		n, seed, seed+int64(n)-1, env["nproc"], env["gomaxprocs"], env["gogc"], env["go"], env["commit"])
	fmt.Fprintln(out, "| workload | metric | unit | min | median | max | IQR/median | halves | bound | |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|---|")
	for _, name := range names {
		for _, m := range endToEnd {
			xs := values[name][m.name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			a, b := median(xs[:n/2]), median(xs[n/2:])
			halves := math.Abs(a-b) / a
			verdict := "ok"
			if spread > m.bound || halves > m.bound {
				verdict = "NOISY"
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.5g | %.5g | %.5g | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				name, m.name, m.unit, slices.Min(xs), med, slices.Max(xs), 100*spread, 100*halves, 100*m.bound, verdict)
		}
	}
	return nil
}
