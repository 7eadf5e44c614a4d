// Command dvdcctl coordinates a set of dvdcnode daemons through the
// declarative checkpoint service: every session builds the control plane
// (request store, admission gate, reconciler) over the coordinator, then
// submits Checkpoint and Restore request objects and watches their status —
// the same scheduling path remote callers use over the HTTP API.
//
// Typical session against four local daemons:
//
//	dvdcctl -nodes 127.0.0.1:7401,127.0.0.1:7402,127.0.0.1:7403,127.0.0.1:7404 \
//	        -rounds 5 -steps 200 -kill 2
//
// runs five checkpointed work rounds, then declares node 2 dead and submits
// a Restore request around it (whether or not the daemon process is actually
// gone: the controller stops talking to it either way).
//
// The serve subcommand runs the session headless: it configures the cluster,
// mounts the service API under /api/v1 on the -obs-addr mux, and reconciles
// submitted requests until interrupted. apply, get, and watch speak to it:
//
//	dvdcctl serve -nodes ... -obs-addr 127.0.0.1:7500 -quota alpha=2,beta=1
//	dvdcctl apply -addr 127.0.0.1:7500 -kind checkpoint -tenant alpha -steps 100 -watch
//	dvdcctl get   -addr 127.0.0.1:7500
//	dvdcctl watch -addr 127.0.0.1:7500 -id ckpt-1
//
// The trace subcommand renders a JSONL span file (from dvdcsoak -trace-jsonl,
// the coordinator's -trace-jsonl, or a postmortem bundle's spans.jsonl) as an
// ASCII phase timeline:
//
//	dvdcctl trace -in soak.jsonl              # one summary line per trace
//	dvdcctl trace -in soak.jsonl -epoch 7     # timeline of epoch 7's round
//	dvdcctl trace -in soak.jsonl -trace 1f3a  # timeline of one trace id (hex)
//
// The top subcommand is the live cluster view: it scrapes every process's
// -obs-addr endpoint, merges spans into round trees, and names the round's
// straggler; the postmortem subcommand renders a flight-recorder bundle:
//
//	dvdcctl top -scrape 127.0.0.1:7501,127.0.0.1:7502        # watch
//	dvdcctl top -scrape 127.0.0.1:7501,127.0.0.1:7502 -once  # CI assertion
//	dvdcctl postmortem -dir ./postmortems                    # newest bundle
//
// The health subcommand renders the SLO health engine's verdict from every
// endpoint running with -health (burn-rate state per rule, one table row per
// source), and trace can jump from a request object to the reconcile round
// traces its status links:
//
//	dvdcctl health -scrape 127.0.0.1:7501 -interval 2s   # watch the SLOs
//	dvdcctl health -scrape 127.0.0.1:7501 -once          # CI: nonzero when firing
//
// The adapt subcommand renders the adaptive control loop's decision tallies
// and live tuning state from /metrics (see dvdcsoak -adaptive): per rule,
// how many recommendations fired, were applied, failed, or were skipped and
// why; one-shot mode gates CI on the loop actually having acted:
//
//	dvdcctl adapt -scrape 127.0.0.1:7501 -interval 2s    # watch the decisions
//	dvdcctl adapt -scrape 127.0.0.1:7501 -once -min-applied 1  # CI: nonzero unless applied
//	dvdcctl get   -addr 127.0.0.1:7500 -id ckpt-1 -o wide   # shows round trace ids
//	dvdcctl trace -addr 127.0.0.1:7500 -id ckpt-1           # renders those rounds
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dvdc/internal/cli"
	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/obs/collect"
	"dvdc/internal/obs/health"
	"dvdc/internal/runtime"
	"dvdc/internal/service"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trace":
			traceMain(os.Args[2:])
			return
		case "top":
			topMain(os.Args[2:])
			return
		case "health":
			healthMain(os.Args[2:])
			return
		case "adapt":
			adaptMain(os.Args[2:])
			return
		case "postmortem":
			postmortemMain(os.Args[2:])
			return
		case "serve":
			serveMain(os.Args[2:])
			return
		case "apply":
			applyMain(os.Args[2:])
			return
		case "get":
			getMain(os.Args[2:])
			return
		case "watch":
			watchMain(os.Args[2:])
			return
		}
	}
	sessionMain()
}

// sessionFlags are the cluster-shape flags the interactive session and the
// serve subcommand share.
type sessionFlags struct {
	nodeList string
	stacks   int
	pages    int
	pageSize int
	seed     int64
	tol      int
	group    int
	common   cli.Common
}

func (s *sessionFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&s.nodeList, "nodes", "", "comma-separated node addresses (one per physical node)")
	fs.IntVar(&s.stacks, "stacks", 1, "RAID group stacks")
	fs.IntVar(&s.pages, "pages", 256, "pages per VM")
	fs.IntVar(&s.pageSize, "pagesize", 4096, "bytes per page")
	fs.Int64Var(&s.seed, "seed", 1, "workload seed")
	fs.IntVar(&s.tol, "tolerance", 1, "parity blocks per group (RS code; 1 = XOR)")
	fs.IntVar(&s.group, "groupsize", 0, "members per RAID group (0 = nodes - tolerance)")
	s.common.RPCTimeoutFlag(fs, runtime.DefaultRPCTimeout)
	s.common.ObsAddrFlag(fs)
	s.common.TraceJSONLFlag(fs)
	s.common.PostmortemFlag(fs, "on partial commit")
	s.common.HealthFlag(fs)
}

// session is a configured cluster with its control plane mounted: the
// coordinator and the service driving it.
type session struct {
	coord     *runtime.Coordinator
	svc       *service.Service
	tracer    *obs.Tracer
	registry  *obs.Registry
	health    *health.Evaluator
	closeSink func() error
	srv       *obs.Server
}

// open builds the coordinator, the service, and the observability plane from
// parsed flags, and runs Setup (which prints the configured line).
func (s *sessionFlags) open(opts service.Options) *session {
	addrs := strings.Split(s.nodeList, ",")
	if s.nodeList == "" || len(addrs) < 2 {
		fmt.Fprintln(os.Stderr, "dvdcctl: need at least two -nodes addresses")
		os.Exit(2)
	}
	gs := s.group
	if gs == 0 {
		gs = len(addrs) - s.tol
	}
	layout, err := cluster.BuildDistributedGroups(len(addrs), s.stacks, s.tol, gs)
	fatal(err)
	addrMap := map[int]string{}
	for i, a := range addrs {
		addrMap[i] = strings.TrimSpace(a)
	}
	coord, err := runtime.NewCoordinator(layout, addrMap, s.pages, s.pageSize, s.seed)
	fatal(err)

	se := &session{coord: coord, registry: obs.NewRegistry()}
	if s.common.WantTracer() {
		se.tracer = obs.NewTracer(0)
	}
	closeSink, err := s.common.OpenTraceSink(se.tracer)
	fatal(err)
	se.closeSink = closeSink
	coord.SetObserver(se.tracer, se.registry)
	coord.SetPostmortemDir(s.common.PostmortemDir)
	coord.SetRPCTimeout(s.common.RPCTimeout)

	opts.Tracer, opts.Registry = se.tracer, se.registry
	svc, err := service.Open(coord, opts)
	fatal(err)
	se.svc = svc
	if opts.StateDir != "" {
		fmt.Printf("state dir %s: replayed %d records, %d requests (dropped %d bytes) in %s\n",
			opts.StateDir, svc.Replay.Records, svc.Replay.Requests,
			svc.Replay.DroppedBytes, svc.Replay.Duration.Round(time.Microsecond))
	}

	mounts := []obs.Mount{se.svc.Mount}
	ev, healthMount := s.common.StartHealth(se.registry, se.tracer)
	se.health = ev
	if healthMount != nil {
		mounts = append(mounts, healthMount)
	}
	srv, err := s.common.ServeObs("dvdcctl", se.registry, se.tracer, mounts...)
	fatal(err)
	se.srv = srv

	fatal(coord.Setup())
	fmt.Printf("configured %d nodes, %d VMs, %d groups\n", layout.Nodes, len(layout.VMs), len(layout.Groups))
	se.svc.Start()
	return se
}

// close tears the session down: reconciler first (it quiesces the
// coordinator), then the connections, then the telemetry sinks.
func (se *session) close() {
	se.svc.Stop()
	se.health.Stop()
	se.coord.Close()
	if se.srv != nil {
		se.srv.Close()
	}
	fatal(se.closeSink())
}

// submitAndWait drives one request object to a terminal phase and fails the
// process if it did not converge.
func (se *session) submitAndWait(kind service.Kind, spec service.Spec, timeout time.Duration) *service.Request {
	req, err := se.svc.Submit(kind, spec)
	fatal(err)
	final, err := se.svc.WaitTerminal(req.ID, timeout)
	fatal(err)
	if final.Status.Phase != service.PhaseSucceeded {
		fatal(fmt.Errorf("request %s (%s) %s: %s", final.ID, final.Kind, final.Status.Phase, final.Status.Message))
	}
	return final
}

// sessionWait bounds how long the interactive session waits for one request
// to converge; generous, because a restore may retry through real recovery.
const sessionWait = 10 * time.Minute

func sessionMain() {
	var sf sessionFlags
	var (
		rounds = flag.Int("rounds", 3, "checkpointed work rounds")
		steps  = flag.Uint64("steps", 100, "workload steps per round")
		kill   = flag.Int("kill", -1, "after the rounds, recover from the death of this node index")
		tenant = flag.String("tenant", "cli", "tenant the session's requests are accounted to")
	)
	sf.register(flag.CommandLine)
	sf.common.RoundIntervalFlag(flag.CommandLine)
	flag.Parse()

	se := sf.open(service.Options{})
	defer se.close()

	for r := 1; r <= *rounds; r++ {
		se.submitAndWait(service.KindCheckpoint, service.Spec{Tenant: *tenant, Steps: *steps}, sessionWait)
		fmt.Printf("round %d: %s\n", r, se.coord.RoundStats())
		if sf.common.RoundInterval > 0 && r < *rounds {
			time.Sleep(sf.common.RoundInterval)
		}
	}
	sums, err := se.coord.Checksums()
	fatal(err)
	fmt.Printf("committed state over %d VMs\n", len(sums))
	if *rounds > 0 {
		fmt.Printf("phase timings:\n")
		for _, phase := range []string{"prepare", "commit", "recovery", "rebalance", "evacuate"} {
			h, ok := se.registry.HistogramSnapshot("dvdc_round_phase_seconds", "phase", phase)
			if !ok || h.Total == 0 {
				continue
			}
			fmt.Printf("%-10s %.3f ms mean, p50 %.3f, p90 %.3f (n=%d)\n", phase,
				h.Sum/float64(h.Total)*1e3, h.Quantile(0.5)*1e3, h.Quantile(0.9)*1e3, h.Total)
		}
	}

	if *kill >= 0 {
		fmt.Printf("recovering from death of node %d...\n", *kill)
		fatal(se.coord.DeclareDead(*kill))
		se.submitAndWait(service.KindRestore, service.Spec{Tenant: *tenant, Nodes: []int{*kill}}, sessionWait)
		if plan := se.coord.LastPlan(); plan != nil {
			for _, s := range plan.Steps {
				fmt.Printf("  %-14s group %d -> node %d", s.Kind, s.Group, s.TargetNode)
				if s.VM != "" {
					fmt.Printf(" (vm %s)", s.VM)
				}
				if s.Degraded {
					fmt.Printf(" [degraded]")
				}
				fmt.Println()
			}
		}
		after, err := se.coord.Checksums()
		fatal(err)
		mismatch := 0
		for vmName, want := range sums {
			if after[vmName] != want {
				mismatch++
			}
		}
		fmt.Printf("recovery complete: %d/%d VM states verified\n", len(sums)-mismatch, len(sums))
		if mismatch > 0 {
			os.Exit(1)
		}
	}
}

// parseQuotas parses "tenant=N[,tenant=N...]" into the admission table.
func parseQuotas(s string) (map[string]service.Quota, error) {
	out := map[string]service.Quota{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -quota entry %q (want tenant=N)", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(kv[1]))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -quota cap in %q (want a positive integer)", part)
		}
		out[strings.TrimSpace(kv[0])] = service.Quota{MaxActive: n}
	}
	return out, nil
}

// serveMain is the headless session: configure the cluster, mount /api/v1 on
// the obs endpoint, and reconcile submitted requests until interrupted.
func serveMain(args []string) {
	fs := flag.NewFlagSet("dvdcctl serve", flag.ExitOnError)
	var sf sessionFlags
	var (
		quota    = fs.String("quota", "", "per-tenant active-request caps, tenant=N[,tenant=N...]")
		defQuota = fs.Int("default-quota", 0, "active-request cap for unlisted tenants (0 = service default)")
		retries  = fs.Int("max-retries", 0, "reconcile attempts per request (0 = service default)")
		stateDir = fs.String("state-dir", "",
			"durable store directory: journal every request there and replay it on startup (empty = in-memory only)")
	)
	sf.register(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if sf.common.ObsAddr == "" {
		fmt.Fprintln(os.Stderr, "dvdcctl serve: -obs-addr is required (the service API mounts there)")
		os.Exit(2)
	}
	quotas, err := parseQuotas(*quota)
	fatal(err)

	se := sf.open(service.Options{Quotas: quotas, DefaultQuota: *defQuota, MaxRetries: *retries, StateDir: *stateDir})
	defer se.close()
	fmt.Printf("service API on http://%s/api/v1/requests\n", se.srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("dvdcctl serve: shutting down")
}

// printRequest is the one-line rendering get/apply/watch share.
func printRequest(r *service.Request) {
	fmt.Printf("%-10s %-10s %-10s %-10s retries=%d epoch=%d", r.ID, r.Kind, r.Spec.Tenant, r.Status.Phase, r.Status.Retries, r.Status.Epoch)
	if len(r.Status.Casualties) > 0 {
		fmt.Printf(" casualties=%v", r.Status.Casualties)
	}
	if r.Status.Message != "" {
		fmt.Printf("  %s", r.Status.Message)
	}
	fmt.Println()
}

// printRequestWide is printRequest plus the request↔trace linkage: the trace
// ids of the reconcile rounds that drove the request, newest last.
func printRequestWide(r *service.Request) {
	printRequest(r)
	if len(r.Status.TraceIDs) > 0 {
		fmt.Printf("           traces=%s\n", strings.Join(r.Status.TraceIDs, ","))
	}
}

// applyMain submits one request object over the HTTP API. Quota rejections
// exit 3 (backpressure), other failures exit 1, so scripts can tell "try
// again later" from "broken".
func applyMain(args []string) {
	fs := flag.NewFlagSet("dvdcctl apply", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "", "service API address (host:port printed by serve)")
		kindStr  = fs.String("kind", "checkpoint", "checkpoint | restore")
		tenant   = fs.String("tenant", "cli", "tenant the request is accounted to")
		priority = fs.Int("priority", 0, "queue priority (higher runs first)")
		steps    = fs.Uint64("steps", 0, "checkpoint: workload steps before the round")
		recover  = fs.String("recover", "", "restore: comma-separated failed node indexes")
		watch    = fs.Bool("watch", false, "block until the request reaches a terminal phase")
		timeout  = fs.Duration("timeout", 5*time.Minute, "with -watch: give up after this long")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "dvdcctl apply: -addr is required")
		os.Exit(2)
	}
	var kind service.Kind
	switch strings.ToLower(*kindStr) {
	case "checkpoint":
		kind = service.KindCheckpoint
	case "restore":
		kind = service.KindRestore
	default:
		fmt.Fprintf(os.Stderr, "dvdcctl apply: unknown -kind %q (want checkpoint or restore)\n", *kindStr)
		os.Exit(2)
	}
	spec := service.Spec{Tenant: *tenant, Priority: *priority, Steps: *steps}
	if *recover != "" {
		for _, part := range strings.Split(*recover, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			fatal(err)
			spec.Nodes = append(spec.Nodes, n)
		}
	}
	c := service.NewClient(*addr)
	req, err := c.Submit(kind, spec)
	var qe *service.QuotaError
	if errors.As(err, &qe) {
		fmt.Fprintf(os.Stderr, "dvdcctl apply: %v\n", qe)
		os.Exit(3)
	}
	fatal(err)
	printRequest(req)
	if *watch {
		watchOne(c, req.ID, *timeout)
	}
}

// watchOne follows one request to a terminal phase, printing transitions;
// exits 1 unless it Succeeded.
func watchOne(c *service.Client, id string, timeout time.Duration) {
	final, err := c.Watch(id, timeout, func(r *service.Request) { printRequest(r) })
	fatal(err)
	if final.Status.Phase != service.PhaseSucceeded {
		os.Exit(1)
	}
}

// getMain lists request objects (or one, with -id), plus the quota table
// with -quotas.
func getMain(args []string) {
	fs := flag.NewFlagSet("dvdcctl get", flag.ExitOnError)
	var (
		addr   = fs.String("addr", "", "service API address (host:port printed by serve)")
		id     = fs.String("id", "", "one request id (default: list all)")
		tenant = fs.String("tenant", "", "list only this tenant's requests")
		quotas = fs.Bool("quotas", false, "print the per-tenant quota table instead")
		output = fs.String("o", "", "output format: wide adds the reconcile round trace ids (jump into them with dvdcctl trace)")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "dvdcctl get: -addr is required")
		os.Exit(2)
	}
	wide := *output == "wide"
	if *output != "" && !wide {
		fmt.Fprintf(os.Stderr, "dvdcctl get: unknown -o %q (want wide)\n", *output)
		os.Exit(2)
	}
	show := printRequest
	if wide {
		show = printRequestWide
	}
	c := service.NewClient(*addr)
	switch {
	case *quotas:
		tenants, def, err := c.Quotas()
		fatal(err)
		fmt.Printf("default quota: %d active\n", def)
		for t, q := range tenants {
			fmt.Printf("%-10s limit=%d active=%d\n", t, q.Limit, q.Active)
		}
	case *id != "":
		req, err := c.Get(*id)
		fatal(err)
		show(req)
	default:
		reqs, err := c.List(*tenant)
		fatal(err)
		for _, r := range reqs {
			show(r)
		}
		fmt.Printf("%d request(s)\n", len(reqs))
	}
}

// watchMain follows one request by id.
func watchMain(args []string) {
	fs := flag.NewFlagSet("dvdcctl watch", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "", "service API address (host:port printed by serve)")
		id      = fs.String("id", "", "request id to follow")
		timeout = fs.Duration("timeout", 5*time.Minute, "give up after this long")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *addr == "" || *id == "" {
		fmt.Fprintln(os.Stderr, "dvdcctl watch: -addr and -id are required")
		os.Exit(2)
	}
	watchOne(service.NewClient(*addr), *id, *timeout)
}

// traceMain renders a JSONL span file: by default a one-line summary per
// trace; with -trace or -epoch, the full ASCII timeline of one span tree.
// With -addr and -id it jumps from a request object to its round traces
// instead: fetch the request over the API, follow Status.TraceIDs, and
// render each tree from the same endpoint's /spans buffer.
func traceMain(args []string) {
	fs := flag.NewFlagSet("dvdcctl trace", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "JSONL span file ('-' = stdin)")
		traceID = fs.String("trace", "", "render this trace id (hex)")
		epoch   = fs.Int64("epoch", -1, "render the checkpoint round that targeted this epoch")
		width   = fs.Int("width", 100, "timeline width in columns")
		addr    = fs.String("addr", "", "service API address: jump from a request (-id) to its round traces")
		reqID   = fs.String("id", "", "with -addr: request id whose round traces to render")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *addr != "" || *reqID != "" {
		if *addr == "" || *reqID == "" {
			fmt.Fprintln(os.Stderr, "dvdcctl trace: -addr and -id go together")
			os.Exit(2)
		}
		traceRequest(*addr, *reqID, *width)
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "dvdcctl trace: -in is required (or -addr with -id)")
		os.Exit(2)
	}
	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		fatal(err)
		defer f.Close()
		r = f
	}
	spans, err := obs.ReadJSONL(r)
	fatal(err)
	if len(spans) == 0 {
		fmt.Println("no spans in input")
		return
	}
	order, byTrace := obs.GroupTraces(spans)

	pick := uint64(0)
	switch {
	case *traceID != "":
		id, err := strconv.ParseUint(strings.TrimPrefix(*traceID, "0x"), 16, 64)
		fatal(err)
		if _, ok := byTrace[id]; !ok {
			fatal(fmt.Errorf("trace %016x not found (%d traces in %s)", id, len(order), *in))
		}
		pick = id
	case *epoch >= 0:
		want := strconv.FormatInt(*epoch, 10)
		for _, id := range order {
			for _, s := range byTrace[id] {
				// Service-driven rounds nest under a reconcile root, so the
				// round span is not necessarily the trace root.
				if s.Name == "round" && s.Attrs["epoch"] == want {
					pick = id
				}
			}
		}
		if pick == 0 {
			fatal(fmt.Errorf("no round trace with epoch %d in %s", *epoch, *in))
		}
	case len(order) == 1:
		pick = order[0]
	}
	if pick != 0 {
		fmt.Print(collect.RenderTimeline(collect.BuildTree(byTrace[pick]), *width))
		return
	}
	for _, line := range collect.SummarizeTraces(spans) {
		fmt.Println(line)
	}
	fmt.Printf("%d traces; render one with -trace <id> or -epoch <n>\n", len(order))
}

// traceRequest is the request→trace jump: fetch one request object, follow
// its Status.TraceIDs into the endpoint's /spans buffer, and render each
// reconcile round's timeline. The serve subcommand mounts /api/v1 and /spans
// on the same listener, so one -addr reaches both.
func traceRequest(addr, id string, width int) {
	req, err := service.NewClient(addr).Get(id)
	fatal(err)
	if len(req.Status.TraceIDs) == 0 {
		fatal(fmt.Errorf("request %s carries no round trace ids yet (no reconcile attempt has started, or the server runs without -obs-addr tracing)", req.ID))
	}
	col := collect.New()
	if _, err := col.ScrapeSpans(addr); err != nil {
		fatal(fmt.Errorf("scrape /spans from %s: %w", addr, err))
	}
	printRequestWide(req)
	for _, hexID := range req.Status.TraceIDs {
		tid, err := strconv.ParseUint(strings.TrimPrefix(hexID, "0x"), 16, 64)
		fatal(err)
		tree := col.Tree(tid)
		if tree == nil || len(tree.Spans) == 0 {
			fmt.Printf("trace %s: no spans in the endpoint's buffer (evicted?)\n", hexID)
			continue
		}
		verdict := "closed"
		if err := tree.Verify(); err != nil {
			verdict = err.Error()
		}
		fmt.Printf("trace %s (%d spans, %s):\n", hexID, len(tree.Spans), verdict)
		fmt.Print(collect.RenderTimeline(tree, width))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvdcctl: %v\n", err)
		os.Exit(1)
	}
}
