package cli

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dvdc/internal/obs"
)

// TestCommonFlagRegistration pins the shared spellings and defaults: every
// binary that registers these flags through Common gets exactly these names,
// so a script written against one binary's flags works against them all.
func TestCommonFlagRegistration(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var c Common
	c.ObsAddrFlag(fs)
	c.RPCTimeoutFlag(fs, 5*time.Second)
	c.PostmortemFlag(fs, "on SIGQUIT")
	c.RoundIntervalFlag(fs)
	c.TraceJSONLFlag(fs)

	for name, def := range map[string]string{
		"obs-addr":       "",
		"rpc-timeout":    "5s",
		"postmortem-dir": "",
		"round-interval": "0s",
		"trace-jsonl":    "",
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("flag -%s not registered", name)
		}
		if f.DefValue != def {
			t.Errorf("-%s default = %q, want %q", name, f.DefValue, def)
		}
	}
	if !strings.Contains(fs.Lookup("postmortem-dir").Usage, "on SIGQUIT") {
		t.Errorf("postmortem usage lost its trigger: %q", fs.Lookup("postmortem-dir").Usage)
	}

	err := fs.Parse([]string{
		"-obs-addr", "127.0.0.1:0", "-rpc-timeout", "2s",
		"-postmortem-dir", "/tmp/pm", "-round-interval", "50ms", "-trace-jsonl", "x.jsonl",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.ObsAddr != "127.0.0.1:0" || c.RPCTimeout != 2*time.Second ||
		c.PostmortemDir != "/tmp/pm" || c.RoundInterval != 50*time.Millisecond || c.TraceJSONL != "x.jsonl" {
		t.Errorf("parsed values landed wrong: %+v", c)
	}
	if !c.WantTracer() {
		t.Error("WantTracer = false with -obs-addr and -trace-jsonl both set")
	}
}

// TestServeObsDiscoveryAndMounts starts a real endpoint: the canonical "obs
// listening on" line must land on stderr (scripts parse it to learn a
// kernel-assigned port), and a mount must answer on the same mux as /metrics.
func TestServeObsDiscoveryAndMounts(t *testing.T) {
	c := Common{ObsAddr: "127.0.0.1:0"}
	reg := obs.NewRegistry()

	outR, outW, _ := os.Pipe()
	errR, errW, _ := os.Pipe()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outW, errW
	srv, err := c.ServeObs("testbin", reg, nil, func(mux *http.ServeMux) {
		mux.HandleFunc("/api/ping", func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "pong") //nolint:errcheck
		})
	})
	os.Stdout, os.Stderr = oldOut, oldErr
	outW.Close()
	errW.Close()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stdout, _ := io.ReadAll(outR)
	stderr, _ := io.ReadAll(errR)
	if !strings.Contains(string(stdout), "testbin observability on http://"+srv.Addr()+"/metrics") {
		t.Errorf("stdout missing discovery URL: %q", stdout)
	}
	if !strings.Contains(string(stderr), "obs listening on "+srv.Addr()) {
		t.Errorf("stderr missing canonical discovery line: %q", stderr)
	}

	for path, want := range map[string]string{"/api/ping": "pong", "/healthz": "ok"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s = %q, want %q", path, body, want)
		}
	}

	// Unset flag: no server, no error.
	if srv, err := (&Common{}).ServeObs("testbin", reg, nil); srv != nil || err != nil {
		t.Errorf("ServeObs without -obs-addr = (%v, %v), want (nil, nil)", srv, err)
	}
}

// TestOpenTraceSinkAndRecorder covers the remaining bootstrap helpers: the
// JSONL sink receives finished spans and the closer flushes them; Recorder
// wires dump dir, registry, and tracer, so its bundles carry the spans.
func TestOpenTraceSinkAndRecorder(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spans.jsonl")
	c := Common{TraceJSONL: path, PostmortemDir: dir}
	tr := obs.NewTracer(16)
	closeSink, err := c.OpenTraceSink(tr)
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Recorder(obs.NewRegistry(), tr)
	if rec == nil {
		t.Fatal("Recorder = nil with -postmortem-dir set")
	}

	sp := tr.Start(obs.SpanContext{}, "unit", "test")
	sp.Finish()
	closeSink()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"unit"`) {
		t.Errorf("sink file missing span: %q", data)
	}
	bundle, err := rec.AutoDump("unit")
	if err != nil {
		t.Fatal(err)
	}
	b, err := obs.ReadBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Spans) != 1 || b.Spans[0].Name != "unit" {
		t.Errorf("bundle spans = %+v, want the traced span", b.Spans)
	}

	// Unset flags are no-ops.
	var empty Common
	if closer, err := empty.OpenTraceSink(tr); err != nil || closer == nil {
		t.Errorf("OpenTraceSink on empty Common: closer nil=%v, err=%v", closer == nil, err)
	}
	if rec := empty.Recorder(nil, nil); rec != nil {
		t.Error("Recorder on empty Common should be nil")
	}
}
