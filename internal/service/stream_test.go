package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// TestStreamWatchDeliversUpdates reads the raw ndjson watch stream and checks
// it carries the request's whole phase history in one connection: current
// state first, then one reply per change, ending at the terminal phase.
func TestStreamWatchDeliversUpdates(t *testing.T) {
	release := make(chan struct{})
	exec := &gatedExec{gate: release}
	svc := startService(t, exec, Options{})

	mux := http.NewServeMux()
	svc.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	req, err := svc.Submit(KindCheckpoint, Spec{Tenant: "a", Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Open the stream while the executor is still gated, so the connection is
	// guaranteed to witness at least one pre-terminal phase.
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/requests/%s/watch?rev=-1&timeout=5s&stream=1", srv.URL, url.PathEscape(req.ID)))
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var replies []watchReply
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var wr watchReply
		if err := json.Unmarshal(sc.Bytes(), &wr); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		replies = append(replies, wr)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(replies) < 2 {
		t.Fatalf("stream carried %d replies, want the phase history (>= 2)", len(replies))
	}
	for i := 1; i < len(replies); i++ {
		if replies[i].Rev <= replies[i-1].Rev {
			t.Fatalf("stream revs not increasing: %d then %d", replies[i-1].Rev, replies[i].Rev)
		}
	}
	last := replies[len(replies)-1]
	if last.Request == nil || !last.Request.Terminal() {
		t.Fatalf("stream ended before terminal phase: %+v", last)
	}
	if last.Request.Status.Phase != PhaseSucceeded {
		t.Fatalf("final phase = %s, want Succeeded", last.Request.Status.Phase)
	}
}

// TestStreamSlowConsumerDoesNotWedge pins the regression the streaming watch
// must never introduce: a consumer that connects and then stops reading may
// block its own handler goroutine on the response write, but the store's
// level-trigger Wait has no per-watcher queue — status writes and other
// watchers must proceed at full speed.
func TestStreamSlowConsumerDoesNotWedge(t *testing.T) {
	exec := &fakeExec{}
	svc := openService(t, exec, Options{}) // reconciler not started: the test drives status writes
	mux := http.NewServeMux()
	svc.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	req, err := svc.Submit(KindCheckpoint, Spec{Tenant: "a", Steps: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The slow consumer: a raw TCP client that sends the request and never
	// reads a byte of the response, so kernel buffers fill and the stream
	// handler blocks mid-write.
	conn, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /api/v1/requests/%s/watch?rev=-1&timeout=30s&stream=1 HTTP/1.1\r\nHost: x\r\n\r\n", url.PathEscape(req.ID))
	time.Sleep(50 * time.Millisecond) // let the handler enter its loop

	// Hammer large status writes: far more bytes than any socket buffer, so
	// the slow consumer's handler is certainly wedged on write by the end.
	big := strings.Repeat("x", 64*1024)
	start := time.Now()
	for i := 0; i < 200; i++ {
		if _, err := svc.Store.UpdateStatus(req.ID, func(_ time.Time, r *Request) {
			r.Status.Message = fmt.Sprintf("%s %d", big, i)
		}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if _, err := svc.Store.UpdateStatus(req.ID, func(_ time.Time, r *Request) {
		r.Status.Phase = PhaseSucceeded
		r.Status.Message = "done"
	}); err != nil {
		t.Fatal(err)
	}
	writeWall := time.Since(start)
	if writeWall > 5*time.Second {
		t.Fatalf("201 status writes took %v with a slow stream consumer attached — store wedged", writeWall)
	}

	// A well-behaved watcher opened alongside the wedged one converges fast.
	cl := NewClient(srv.URL)
	t0 := time.Now()
	final, err := cl.Watch(req.ID, 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status.Phase != PhaseSucceeded {
		t.Fatalf("fast watcher saw %s, want Succeeded", final.Status.Phase)
	}
	if d := time.Since(t0); d > 3*time.Second {
		t.Fatalf("fast watcher took %v beside a slow consumer", d)
	}
}
