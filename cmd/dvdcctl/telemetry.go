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

// scrapeFlags are the flags top, health and adapt share: the endpoints to
// scrape and how often and how many times to render them.
type scrapeFlags struct {
	fs       *flag.FlagSet
	scrape   string
	interval time.Duration
	once     bool
	width    int
	count    int
}

// newScrapeFlags registers the shared flags on a fresh flag set for the
// subcommand name; once describes its -once mode.
func newScrapeFlags(name, once string) *scrapeFlags {
	sf := &scrapeFlags{fs: flag.NewFlagSet("dvdcctl "+name, flag.ExitOnError)}
	sf.fs.StringVar(&sf.scrape, "scrape", "", "comma-separated obs endpoints (host:port of each -obs-addr)")
	sf.fs.DurationVar(&sf.interval, "interval", 2*time.Second, "refresh interval in watch mode")
	sf.fs.BoolVar(&sf.once, "once", false, once)
	sf.fs.IntVar(&sf.width, "width", 100, "render width in columns")
	sf.fs.IntVar(&sf.count, "n", 0, "stop after this many refreshes (0 = until interrupted)")
	return sf
}

// parse parses args and returns the -scrape endpoints, exiting 2 without
// the flag.
func (sf *scrapeFlags) parse(args []string) []string {
	sf.fs.Parse(args) //nolint:errcheck // ExitOnError
	if sf.scrape == "" {
		fmt.Fprintf(os.Stderr, "%s: -scrape is required (comma-separated obs endpoints)\n", sf.fs.Name())
		os.Exit(2)
	}
	var sources []string
	for _, a := range strings.Split(sf.scrape, ",") {
		if a = strings.TrimSpace(a); a != "" {
			sources = append(sources, a)
		}
	}
	return sources
}

// loop prints refresh's text every -interval, a separator line between
// renders, until -once or -n makes a refresh the last (refresh is told so):
// the process then exits with that refresh's code.
func (sf *scrapeFlags) loop(refresh func(last bool) (text string, code int)) {
	for i := 0; ; i++ {
		last := sf.once || (sf.count > 0 && i+1 >= sf.count)
		text, code := refresh(last)
		if i > 0 {
			fmt.Println(strings.Repeat("-", sf.width))
		}
		fmt.Print(text)
		if last {
			os.Exit(code)
		}
		time.Sleep(sf.interval)
	}
}

// topMain is the live cluster view: scrape every -obs-addr endpoint's /spans
// and /metrics, merge the spans into round trees, and render the latest
// round's verdict — single-rooted-and-closed or not, the per-lane time
// breakdown, the straggler, and habitual latency outliers. One-shot mode
// doubles as the CI assertion hook: exit 1 when the merged round trace is
// incomplete, so a pipeline can gate on it.
func topMain(args []string) {
	sf := newScrapeFlags("top", "render one refresh and exit (for scripts and CI)")
	sources := sf.parse(args)
	c := collect.New()
	outliers := collect.NewOutlierTracker()
	sf.loop(func(bool) (string, int) {
		v := collect.BuildTopView(c, sources, outliers)
		code := 0
		if v.Trace != 0 && !v.Closed {
			code = 1
		}
		return collect.RenderTop(v, sf.width), code
	})
}

// healthMain watches the cluster's SLO verdict: scrape every endpoint's
// /api/v1/health report (served by processes run with -health) and render the
// per-rule table. One-shot mode is the CI gate — exit 2 when an endpoint is
// unreachable, 1 when any rule is firing, 0 when the cluster is healthy.
func healthMain(args []string) {
	sf := newScrapeFlags("health", "render one refresh and exit nonzero when firing (for scripts and CI)")
	sources := sf.parse(args)
	client := &http.Client{Timeout: 5 * time.Second}
	sf.loop(func(bool) (string, int) {
		reports := make([]health.SourceReport, 0, len(sources))
		code := 0
		for _, src := range sources {
			sr := fetchHealth(client, src)
			switch {
			case sr.Err != nil:
				code = 2
			case code == 0 && !sr.Report.Healthy:
				code = 1
			}
			reports = append(reports, sr)
		}
		return health.RenderReports(reports, sf.width), code
	})
}

// adaptMain renders the adaptive control loop's paper trail from each
// endpoint's /metrics exposition: the live tuning state (checkpoint
// interval, failure rate) and the per-rule decision tallies — recommended,
// applied, failed, and every skip reason.
// One-shot mode is the CI gate for the convergence experiment: exit 2 when
// an endpoint is unreachable, 1 when fewer than -min-applied decisions have
// been applied cluster-wide, 0 otherwise.
func adaptMain(args []string) {
	sf := newScrapeFlags("adapt", "render one refresh and exit (for scripts and CI)")
	minApplied := sf.fs.Int("min-applied", 0, "with -once: exit 1 unless at least this many decisions were applied")
	sources := sf.parse(args)
	c := collect.New()
	sf.loop(func(last bool) (string, int) {
		var b strings.Builder
		var applied float64
		code := 0
		for _, src := range sources {
			exp, err := c.ScrapeMetrics(src)
			if err != nil {
				fmt.Fprintf(&b, "%s: unreachable: %v\n", src, err)
				code = 2
				continue
			}
			v := adapt.BuildView(exp)
			applied += v.TotalApplied()
			fmt.Fprintf(&b, "%s:\n%s", src, adapt.RenderView(v))
		}
		if code == 0 && applied < float64(*minApplied) {
			code = 1
			if last {
				fmt.Fprintf(&b, "applied decisions %.0f < required %d\n", applied, *minApplied)
			}
		}
		return b.String(), code
	})
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
// spans (every RPC, chaos fault and alert transition is one) a process
// dumped when it hit a PartialCommitError, a soak invariant violation, or
// SIGQUIT. The spans render as trees with dvdcctl trace -in.
func postmortemMain(args []string) {
	fs := flag.NewFlagSet("dvdcctl postmortem", flag.ExitOnError)
	var (
		bundle = fs.String("bundle", "", "one bundle directory (postmortem-...)")
		dir    = fs.String("dir", "", "directory of bundles; renders the newest")
		list   = fs.Bool("list", false, "with -dir: list bundles instead of rendering")
		tail   = fs.Int("tail", 40, "how many trailing spans to show")
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
