package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"dvdc/internal/obs"
	"dvdc/internal/obs/adapt"
	"dvdc/internal/obs/collect"
	"dvdc/internal/obs/health"
)

// topMain is the live cluster view: scrape every -obs-addr endpoint's /spans
// and /metrics, merge the spans into round trees, and render the latest
// round's verdict — single-rooted-and-closed or not, the per-lane time
// breakdown, the straggler, and habitual latency outliers.
func topMain(args []string) {
	fs := flag.NewFlagSet("dvdcctl top", flag.ExitOnError)
	var (
		scrape   = fs.String("scrape", "", "comma-separated obs endpoints (host:port of each -obs-addr)")
		interval = fs.Duration("interval", 2*time.Second, "refresh interval in watch mode")
		once     = fs.Bool("once", false, "render one refresh and exit (for scripts and CI)")
		width    = fs.Int("width", 100, "render width in columns")
		count    = fs.Int("n", 0, "stop after this many refreshes (0 = until interrupted)")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *scrape == "" {
		fmt.Fprintln(os.Stderr, "dvdcctl top: -scrape is required (comma-separated obs endpoints)")
		os.Exit(2)
	}
	var sources []string
	for _, a := range strings.Split(*scrape, ",") {
		if a = strings.TrimSpace(a); a != "" {
			sources = append(sources, a)
		}
	}
	c := collect.New()
	outliers := collect.NewOutlierTracker(0, 0)
	for i := 0; ; i++ {
		v := collect.BuildTopView(c, sources, outliers)
		if i > 0 {
			fmt.Println(strings.Repeat("-", *width))
		}
		fmt.Print(collect.RenderTop(v, *width))
		if *once || (*count > 0 && i+1 >= *count) {
			// One-shot mode doubles as the CI assertion hook: exit nonzero when
			// the merged round trace is incomplete, so a pipeline can gate on it.
			if v.Trace != 0 && !v.Closed {
				os.Exit(1)
			}
			return
		}
		time.Sleep(*interval)
	}
}

// healthMain watches the cluster's SLO verdict: scrape every endpoint's
// /api/v1/health report (served by processes run with -health) and render the
// per-rule table. One-shot mode is the CI gate — exit 2 when an endpoint is
// unreachable, 1 when any rule is firing, 0 when the cluster is healthy.
func healthMain(args []string) {
	fs := flag.NewFlagSet("dvdcctl health", flag.ExitOnError)
	var (
		scrape   = fs.String("scrape", "", "comma-separated obs endpoints (host:port of each -obs-addr)")
		interval = fs.Duration("interval", 2*time.Second, "refresh interval in watch mode")
		once     = fs.Bool("once", false, "render one refresh and exit nonzero when firing (for scripts and CI)")
		width    = fs.Int("width", 100, "render width in columns")
		count    = fs.Int("n", 0, "stop after this many refreshes (0 = until interrupted)")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *scrape == "" {
		fmt.Fprintln(os.Stderr, "dvdcctl health: -scrape is required (comma-separated obs endpoints)")
		os.Exit(2)
	}
	var sources []string
	for _, a := range strings.Split(*scrape, ",") {
		if a = strings.TrimSpace(a); a != "" {
			sources = append(sources, a)
		}
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; ; i++ {
		reports := make([]health.SourceReport, 0, len(sources))
		for _, src := range sources {
			reports = append(reports, fetchHealth(client, src))
		}
		if i > 0 {
			fmt.Println(strings.Repeat("-", *width))
		}
		fmt.Print(health.RenderReports(reports, *width))
		if *once || (*count > 0 && i+1 >= *count) {
			code := 0
			for _, sr := range reports {
				switch {
				case sr.Err != nil:
					code = 2
				case code == 0 && !sr.Report.Healthy:
					code = 1
				}
			}
			os.Exit(code)
		}
		time.Sleep(*interval)
	}
}

// adaptMain renders the adaptive control loop's paper trail from each
// endpoint's /metrics exposition: the live tuning state (checkpoint
// interval, failure rate) and the per-rule decision tallies — recommended,
// applied, failed, and every skip reason.
// One-shot mode is the CI gate for the convergence experiment: exit 2 when
// an endpoint is unreachable, 1 when fewer than -min-applied decisions have
// been applied cluster-wide, 0 otherwise.
func adaptMain(args []string) {
	fs := flag.NewFlagSet("dvdcctl adapt", flag.ExitOnError)
	var (
		scrape     = fs.String("scrape", "", "comma-separated obs endpoints (host:port of each -obs-addr)")
		interval   = fs.Duration("interval", 2*time.Second, "refresh interval in watch mode")
		once       = fs.Bool("once", false, "render one refresh and exit (for scripts and CI)")
		minApplied = fs.Int("min-applied", 0, "with -once: exit 1 unless at least this many decisions were applied")
		count      = fs.Int("n", 0, "stop after this many refreshes (0 = until interrupted)")
		width      = fs.Int("width", 100, "render width in columns")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *scrape == "" {
		fmt.Fprintln(os.Stderr, "dvdcctl adapt: -scrape is required (comma-separated obs endpoints)")
		os.Exit(2)
	}
	var sources []string
	for _, a := range strings.Split(*scrape, ",") {
		if a = strings.TrimSpace(a); a != "" {
			sources = append(sources, a)
		}
	}
	c := collect.New()
	for i := 0; ; i++ {
		if i > 0 {
			fmt.Println(strings.Repeat("-", *width))
		}
		var applied float64
		unreachable := false
		for _, src := range sources {
			exp, err := c.ScrapeMetrics(src)
			if err != nil {
				fmt.Printf("%s: unreachable: %v\n", src, err)
				unreachable = true
				continue
			}
			v := adapt.BuildView(exp)
			applied += v.TotalApplied()
			fmt.Printf("%s:\n%s", src, adapt.RenderView(v))
		}
		if *once || (*count > 0 && i+1 >= *count) {
			switch {
			case unreachable:
				os.Exit(2)
			case applied < float64(*minApplied):
				fmt.Printf("applied decisions %.0f < required %d\n", applied, *minApplied)
				os.Exit(1)
			}
			return
		}
		time.Sleep(*interval)
	}
}

// fetchHealth pulls one endpoint's /api/v1/health document.
func fetchHealth(client *http.Client, src string) health.SourceReport {
	sr := health.SourceReport{Source: src}
	resp, err := client.Get("http://" + src + "/api/v1/health")
	if err != nil {
		sr.Err = err
		return sr
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		sr.Err = fmt.Errorf("HTTP %d (is the endpoint running with -health?)", resp.StatusCode)
		return sr
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr.Report); err != nil {
		sr.Err = fmt.Errorf("decode /api/v1/health: %w", err)
	}
	return sr
}

// postmortemMain renders a flight-recorder bundle: the pre-failure window of
// spans, RPC outcomes, and chaos events a process dumped when it hit a
// PartialCommitError, a soak invariant violation, or SIGQUIT.
func postmortemMain(args []string) {
	fs := flag.NewFlagSet("dvdcctl postmortem", flag.ExitOnError)
	var (
		bundle = fs.String("bundle", "", "one bundle directory (postmortem-...)")
		dir    = fs.String("dir", "", "directory of bundles; renders the newest")
		list   = fs.Bool("list", false, "with -dir: list bundles instead of rendering")
		tail   = fs.Int("tail", 40, "how many trailing flight entries to show")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	path := *bundle
	if path == "" && *dir != "" {
		found, err := obs.FindBundles(*dir)
		fatal(err)
		if len(found) == 0 {
			fatal(fmt.Errorf("no postmortem bundles under %s", *dir))
		}
		if *list {
			for _, p := range found {
				fmt.Println(p)
			}
			return
		}
		path = found[len(found)-1]
	}
	if path == "" {
		fmt.Fprintln(os.Stderr, "dvdcctl postmortem: need -bundle <dir> or -dir <dir>")
		os.Exit(2)
	}
	b, err := obs.ReadBundle(path)
	fatal(err)
	fmt.Print(collect.RenderPostmortem(b, *tail))
}
