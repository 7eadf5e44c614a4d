package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func TestQWPicksTheQuietWindow(t *testing.T) {
	// Four windows of five; the third is the quiet one, and a single fast
	// outlier elsewhere must not win (window medians, not window minima).
	samples := []float64{
		12, 13, 12, 14, 13,
		15, 1, 15, 16, 15,
		10, 11, 10, 10, 11,
		13, 12, 13, 14, 12,
	}
	got, err := qw(samples, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("qw = %v, want the quiet window's median 10", got)
	}
}

func TestQWIgnoresASlowBurst(t *testing.T) {
	steady := make([]float64, 40)
	burst := make([]float64, 40)
	for i := range steady {
		steady[i] = 100 + float64(i%3)
		burst[i] = steady[i]
		if i >= 8 && i < 28 { // half of the run, five whole windows, runs 30% slow
			burst[i] *= 1.3
		}
	}
	a, err := qw(steady, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := qw(burst, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("a slow burst moved qw from %v to %v", a, b)
	}
	if m := median(burst); m == median(steady) {
		t.Fatalf("test is vacuous: the burst did not move the plain median (%v)", m)
	}
}

func TestQWWindows(t *testing.T) {
	if _, err := qw(make([]float64, 7), 4); err == nil {
		t.Error("qw accepted 7 samples for windows of 4: there is only one window")
	}
	if _, err := qw(make([]float64, 8), 4); err != nil {
		t.Errorf("qw rejected 8 samples for windows of 4: %v", err)
	}
	if _, err := qw(make([]float64, 8), 1); err == nil {
		t.Error("qw accepted windows of one sample: that is a minimum, not a median")
	}
	// The last window takes the remainder: {9, 9, 1, 1, 1} is one window of
	// three low samples after {9, 9, ...}, not a window of two and a stray.
	got, err := qw([]float64{9, 9, 9, 9, 1, 5, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("qw = %v, want 1: the last window is {1, 5, 1}", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1.0, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSizedKeepsWindowsFull(t *testing.T) {
	for _, s := range workloads {
		for _, seconds := range []int{1, 5, 20, 36, 60} {
			z := s.sized(seconds)
			if z.rounds%heapBlocks != 0 || z.rounds < 2*window {
				t.Errorf("%s at %ds: %d rounds do not fill %d heap blocks and two qw windows", s.name, seconds, z.rounds, heapBlocks)
			}
			if z.cycles%window != 0 || z.cycles < 2*window {
				t.Errorf("%s at %ds: %d cycles do not fill two qw windows of %d", s.name, seconds, z.cycles, window)
			}
			if z.pages != s.pages || z.steps != s.steps {
				t.Errorf("%s at %ds: -seconds changed the image or the dirty rate", s.name, seconds)
			}
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the binary must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the binary has %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the binary %s %s %s %v", i, g, m.name, m.unit, m.better, m.bound)
		}
	}
	for i, m := range perLayer {
		g := f.PerLayer[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the binary %s %s %s", i, g, m.name, m.unit, m.better)
		}
	}
}

func TestMetricNamesAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s %s: unit %q is malformed", kind, n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check("workload", w.name, "")
	}
	for _, m := range endToEnd {
		check("end-to-end", m.name, m.unit)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	for _, m := range perLayer {
		check("per-layer", m.name, m.unit)
	}
}

// quickRun is one -quick end-to-end run of a workload.
func quickRun(t *testing.T, name string, seed int64) *workloadReport {
	t.Helper()
	s, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := e2eReport(s.quick(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Correct || w.Failed != 0 || w.Attempted < 1 {
		t.Fatalf("%s seed %d: %d of %d operations failed", name, seed, w.Failed, w.Attempted)
	}
	if w.Comparable {
		t.Fatalf("%s: a -quick run is marked comparable", name)
	}
	return w
}

func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	for _, s := range workloads {
		w := quickRun(t, s.name, defaultSeed)
		if len(w.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", s.name, len(w.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			got, ok := w.Metrics[m.name]
			if !ok {
				t.Errorf("%s: no %s", s.name, m.name)
				continue
			}
			if got.Unit != m.unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: %s = %v %s, want a positive number of %s", s.name, m.name, got.Value, got.Unit, m.unit)
			}
		}
	}
}

func TestCountsRepeatForASeedAndMoveWithIt(t *testing.T) {
	counts := func(w *workloadReport) [2]float64 {
		return [2]float64{w.Metrics["wire_bytes_per_dirty_byte"].Value, w.Context["runtime.chunks_per_round"].Value}
	}
	a := counts(quickRun(t, "rewrite-dedup", 7))
	b := counts(quickRun(t, "rewrite-dedup", 7))
	c := counts(quickRun(t, "rewrite-dedup", 8))
	if a != b {
		t.Errorf("one seed, two runs: counts %v then %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same counts %v", a)
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	s, err := findWorkload("recover-rs2")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir() + "/spans.jsonl"
	w, err := tracedReport(s.quick(), defaultSeed, out)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Correct {
		t.Fatalf("%d of %d operations failed (span trees are among them)", w.Failed, w.Attempted)
	}
	if len(w.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(w.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		got, ok := w.Metrics[m.name]
		if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s = %+v (present %v), want a finite number of %s", m.name, got, ok, m.unit)
		}
	}
	if w.Metrics["transport.retries"].Value != 0 {
		t.Errorf("transport.retries = %v over the timed rounds, want 0", w.Metrics["transport.retries"].Value)
	}
	if st, err := os.Stat(out); err != nil || st.Size() == 0 {
		t.Errorf("no span JSONL written: %v", err)
	}
	line, err := json.Marshal(w.contractLine())
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("contract line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
}
