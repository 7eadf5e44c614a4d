// Command benchmark is the repository's benchmark: it drives real loopback
// DVDC clusters through the public API of internal/runtime — one process, one
// closed-loop client (the coordinator issues the next round when the
// previous returns), no link emulation, no sleeps — checks that every output
// is correct, and prints each metric of BENCHMARK.json by name with its
// unit. README.md in this directory defines the workloads, the metrics and
// their estimators, and how a later change states a claim against them.
//
//	go run ./benchmark -workload dense-xor            # the 7 end-to-end metrics
//	go run ./benchmark -workload dense-xor -trace 1   # the per-layer metrics
//	go run ./benchmark -workload all -out report.json
//	go run ./benchmark -noise 5                       # the NOISE.md table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload `name`, or all")
		seed     = flag.Int64("seed", defaultSeed, "seed of the guest write streams")
		seconds  = flag.Int("seconds", refSeconds, "size the timed section to about this many seconds on the dev host (scales round and cycle counts, never image sizes)")
		trace    = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -trace 1: write every span as JSONL to this `file` at exit")
		out      = flag.String("out", "", "also write the full report (environment, sample counts, context metrics) as JSON to this `file`")
		list     = flag.Bool("list", false, "list workloads and metrics, then exit")
		quick    = flag.Bool("quick", false, "tiny images and minimum counts: smoke test only, numbers are not comparable")
		noise    = flag.Int("noise", 0, "run the suite `N` times and print the run-to-run noise table instead")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *list {
		printList(os.Stdout)
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	// The dev host has 2 cores; capping at 4 keeps a bigger machine's numbers
	// in the regime the interaction rules in README.md describe (ship and
	// fold share the CPUs).
	goruntime.GOMAXPROCS(min(goruntime.NumCPU(), 4))

	chosen := workloads
	if *workload != "all" {
		w, err := findWorkload(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		chosen = []spec{w}
	}
	specs := make([]spec, len(chosen))
	for i, s := range chosen {
		if *quick {
			specs[i] = s.quick()
		} else {
			specs[i] = s.sized(*seconds)
		}
	}

	if *noise > 0 {
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.name
		}
		if err := runNoise(os.Stdout, names, *seed, *seconds, *quick, *noise); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	rep := newReport(*seed, *seconds, *quick)
	var last *workloadReport
	failed := false
	for _, s := range specs {
		var wr *workloadReport
		var err error
		if *trace == 1 {
			wr, err = tracedReport(s, *seed, *traceOut)
		} else {
			wr, err = e2eReport(s, *seed)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, err)
			os.Exit(1)
		}
		wr.print(os.Stdout)
		rep.Workloads = append(rep.Workloads, wr)
		failed = failed || !wr.Correct
		last = wr
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	// The acceptance driver reads the last stdout line of a single-workload
	// run; with -workload all it is the last workload's.
	line, err := json.Marshal(last.contractLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: failed operations, named above")
		os.Exit(1)
	}
}
