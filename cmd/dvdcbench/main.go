// Command dvdcbench regenerates the paper's evaluation artifacts. Each
// experiment prints its tables and ASCII figures; -csv additionally dumps
// the raw series.
//
// Usage:
//
//	dvdcbench -list
//	dvdcbench -exp E1
//	dvdcbench -exp all -mtbf 10800 -job 172800
//	dvdcbench -obs                 # telemetry-plane overhead on live rounds -> BENCH_obs.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"dvdc/internal/cli"
	"dvdc/internal/experiments"
	"dvdc/internal/metrics"
	"dvdc/internal/obs"
	"dvdc/internal/report"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id (E1..E12) or 'all'")
		list   = flag.Bool("list", false, "list experiments and exit")
		csv    = flag.Bool("csv", false, "also print raw series as CSV")
		outDir = flag.String("out", "", "also write each artifact (and its CSV) into this directory")
		mtbf   = flag.Float64("mtbf", 3*3600, "system MTBF in seconds (paper: 3 h)")
		job    = flag.Float64("job", 2*24*3600, "fault-free job length in seconds (paper: 2 days)")
		nodes  = flag.Int("nodes", 4, "physical nodes (paper: 4)")
		stacks = flag.Int("stacks", 1, "RAID group stacks (VMs/node = stacks*(nodes-1))")
		image  = flag.Int64("image", 2<<30, "VM image bytes (default 2 GiB)")
		wss    = flag.Float64("wss", 32*(1<<20), "dirty working-set bytes (default 32 MiB)")
		rate   = flag.Float64("rate", 4*(1<<20), "guest write rate bytes/s (default 4 MiB/s)")
		seed   = flag.Int64("seed", 20120521, "random seed")
		runs   = flag.Int("runs", 60, "Monte-Carlo repetitions")
		points = flag.Int("points", 120, "sweep points for figures")

		obsBench    = flag.Bool("obs", false, "run the telemetry-plane overhead comparison on a live cluster and exit")
		obRounds    = flag.Int("obs-rounds", 20, "timed checkpoint rounds per telemetry case")
		obsJSONPath = flag.String("obs-json", "BENCH_obs.json", "where -obs writes its JSON artifact")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run here")
	)
	var common cli.Common
	common.ObsAddrFlag(flag.CommandLine)
	flag.Parse()

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvdcbench: %v\n", err)
			os.Exit(1)
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintf(os.Stderr, "dvdcbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *obsBench {
		if err := runObsBench(*obRounds, *seed, *obsJSONPath); err != nil {
			fmt.Fprintf(os.Stderr, "dvdcbench: obs: %v\n", err)
			os.Exit(1)
		}
		return
	}

	reg := obs.NewRegistry()
	srv, err := common.ServeObs("dvdcbench", reg, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvdcbench: %v\n", err)
		os.Exit(1)
	}
	if srv != nil {
		defer srv.Close()
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-4s %s\n", id, experiments.Title(id))
		}
		return
	}
	p := experiments.Default()
	p.MTBF = *mtbf
	p.Job = *job
	p.Nodes = *nodes
	p.Stacks = *stacks
	p.ImageBytes = *image
	p.WSSBytes = *wss
	p.WriteRate = *rate
	p.Seed = *seed
	p.MCRuns = *runs
	p.SweepPoints = *points

	ids := []string{*exp}
	if strings.EqualFold(*exp, "all") {
		ids = experiments.IDs()
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dvdcbench: %v\n", err)
			os.Exit(1)
		}
	}
	for _, id := range ids {
		expStart := time.Now()
		res, err := experiments.Run(id, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvdcbench: %v\n", err)
			os.Exit(1)
		}
		reg.Histogram("dvdc_experiment_seconds", obs.LatencyBuckets(), "id", res.ID).
			Observe(time.Since(expStart).Seconds())
		header := fmt.Sprintf("==== %s: %s ====\n\n", res.ID, res.Title)
		fmt.Printf("%s%s\n", header, res.Text)
		if *csv && len(res.Series) > 0 {
			fmt.Println("-- CSV --")
			fmt.Println(metrics.CSV("x", res.Series...))
		}
		if *outDir != "" {
			base := filepath.Join(*outDir, strings.ToLower(res.ID))
			if err := os.WriteFile(base+".txt", []byte(header+res.Text), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dvdcbench: %v\n", err)
				os.Exit(1)
			}
			if len(res.Series) > 0 {
				if err := os.WriteFile(base+".csv", []byte(metrics.CSV("x", res.Series...)), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "dvdcbench: %v\n", err)
					os.Exit(1)
				}
				f, err := os.Create(base + ".png")
				if err != nil {
					fmt.Fprintf(os.Stderr, "dvdcbench: %v\n", err)
					os.Exit(1)
				}
				chart := report.Chart{Title: res.Title, LogX: id == "E1", LogY: id == "E1"}
				if perr := chart.WritePNGWithMinima(f, res.Series...); perr != nil {
					fmt.Fprintf(os.Stderr, "dvdcbench: render %s: %v\n", id, perr)
				}
				f.Close()
			}
		}
	}
}
