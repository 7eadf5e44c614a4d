// Command dvdcnode runs one DVDC node daemon: it hosts VM memories, keeps
// RAID-group parity, and serves the wire protocol until interrupted. A
// coordinator (cmd/dvdcctl) configures it and drives checkpoint rounds.
//
// Usage:
//
//	dvdcnode -listen 127.0.0.1:7401
//	dvdcnode -listen 127.0.0.1:7401 -obs-addr 127.0.0.1:9100
//
// With -obs-addr the daemon serves Prometheus metrics (/metrics), a health
// probe (/healthz), recent spans (/spans), and net/http/pprof; the bound
// address is printed to stderr ("obs listening on ...") so scripts can use
// -obs-addr 127.0.0.1:0 and discover the kernel-assigned port. With
// -postmortem-dir the daemon keeps a flight recorder and dumps a postmortem
// bundle there on SIGQUIT (and keeps running — SIGQUIT is "explain
// yourself", not "die").
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"dvdc/internal/cli"
	"dvdc/internal/obs"
	"dvdc/internal/runtime"
)

func main() {
	var common cli.Common
	listen := flag.String("listen", "127.0.0.1:0", "address to listen on")
	common.RPCTimeoutFlag(flag.CommandLine, runtime.DefaultRPCTimeout)
	common.ObsAddrFlag(flag.CommandLine)
	common.PostmortemFlag(flag.CommandLine, "on SIGQUIT")
	common.HealthFlag(flag.CommandLine)
	flag.Parse()

	var opts runtime.NodeOptions
	if common.ObsAddr != "" {
		opts.Tracer = obs.NewTracer(0)
		opts.Registry = obs.NewRegistry()
	}
	rec := common.Recorder(opts.Registry, opts.Tracer)
	opts.Recorder = rec
	node, err := runtime.NewNodeWith(*listen, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvdcnode: %v\n", err)
		os.Exit(1)
	}
	node.SetRPCTimeout(common.RPCTimeout)
	fmt.Printf("dvdcnode listening on %s\n", node.Addr())
	ev, healthMount := common.StartHealth(opts.Registry, rec)
	defer ev.Stop()
	var mounts []obs.Mount
	if healthMount != nil {
		mounts = append(mounts, healthMount)
	}
	srv, err := common.ServeObs("dvdcnode", opts.Registry, opts.Tracer, mounts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvdcnode: %v\n", err)
		os.Exit(1)
	}
	if srv != nil {
		defer srv.Close()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	quit := make(chan os.Signal, 1)
	if rec != nil {
		signal.Notify(quit, syscall.SIGQUIT)
	}
	for {
		select {
		case <-quit:
			if path, err := rec.AutoDump("sigquit"); err != nil {
				fmt.Fprintf(os.Stderr, "dvdcnode: postmortem dump: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "dvdcnode: postmortem bundle %s\n", path)
			}
		case <-sig:
			fmt.Println("dvdcnode: shutting down")
			node.Close()
			return
		}
	}
}
