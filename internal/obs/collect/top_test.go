package collect

import (
	"testing"
	"time"

	"dvdc/internal/obs"
)

// topFixture is a fully populated view with deterministic values, covering a
// healthy source, a down source, the straggler mark, and an outlier flag.
func topFixture() TopView {
	return TopView{
		Sources: []SourceStatus{
			{Addr: "127.0.0.1:9100", Up: true, OpenSpans: 1, Dropped: 3, Spans: 7,
				DedupHits: 12, DedupSaved: 3 << 10},
			{Addr: "127.0.0.1:9101", Up: false, Err: "dial tcp: connection refused"},
		},
		Trace:  7,
		Epoch:  "5",
		Wall:   100 * time.Millisecond,
		Closed: true,
		Attr:   Attribute(BuildTree(roundSpans())),

		Outliers:      []string{"node2"},
		ClusterMedian: 2 * time.Millisecond,
		PeerP99: map[string]time.Duration{
			"node1": 2 * time.Millisecond,
			"node2": 78 * time.Millisecond,
		},
	}
}

const topGolden = `dvdc cluster telemetry — 2 source(s)
  SOURCE                   UP     OPEN   DROPPED   SPANS   DEDUP     SAVED
  127.0.0.1:9100           ok        1         3       7      12    3.0KiB
  127.0.0.1:9101           DOWN      0         0       0       0        0B
      dial tcp: connection refused

round trace 0000000000000007  epoch 5  wall 100ms  [CLOSED]
  LANE     BUSY         SPANS  SHARE
 *node2    90ms             4  ####################################
  node1    28ms             4  ###########
  coord    4ms              3  #
  straggler node2 (rpc MsgCommit, 69ms of 100ms round)

  peer p99 (cluster median 2ms):
    node1    2ms
    node2    78ms  << OUTLIER
`

func TestRenderTopGolden(t *testing.T) {
	got := RenderTop(topFixture(), 80)
	if got != topGolden {
		t.Fatalf("render drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, topGolden)
	}
	// Rendering is pure: same view, same bytes.
	if again := RenderTop(topFixture(), 80); again != got {
		t.Fatal("render is not deterministic")
	}
}

func TestRenderTopNoTrace(t *testing.T) {
	got := RenderTop(TopView{Sources: []SourceStatus{{Addr: "x", Up: true}}}, 80)
	want := `dvdc cluster telemetry — 1 source(s)
  SOURCE                   UP     OPEN   DROPPED   SPANS   DEDUP     SAVED
  x                        ok        0         0       0       0        0B

no round trace collected yet
`
	if got != want {
		t.Fatalf("render drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// pmFixture is a bundle as ReadBundle would return it, with fixed times.
func pmFixture() *obs.Bundle {
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	b := &obs.Bundle{
		Path: "/tmp/pm/postmortem-partial-commit-42",
		Meta: obs.BundleMeta{
			Reason:    "partial-commit",
			Time:      at(500),
			HostedPID: 4242,
			Entries:   4,
			Dropped:   2,
			Meta:      map[string]any{"seed": float64(7), "nodes": float64(3)},
		},
		Entries: []obs.FlightEntry{
			{Time: at(100), Kind: "chaos", Name: "delay", Peer: "-1->2", Attrs: map[string]string{"note": "armed"}},
			{Time: at(110), Kind: "rpc", Name: "MsgPrepare", Peer: "node1", Trace: 7, DurNS: int64(5 * time.Millisecond)},
			{Time: at(140), Kind: "rpc", Name: "MsgCommit", Peer: "node2", Trace: 7, DurNS: int64(30 * time.Millisecond), Err: "pool: retries exhausted"},
			{Time: at(141), Kind: "note", Name: "partial-commit", Attrs: map[string]string{"epoch": "5"}},
		},
		Spans: []obs.Span{
			mkSpan(7, 1, 0, "round", "coord", 100, 141),
			mkSpan(7, 2, 1, "rpc MsgCommit", "", 110, 140, "peer", "node2"),
		},
		Metrics: "# TYPE dvdc_up gauge\ndvdc_up 1\ndvdc_rounds_total 9\n",
	}
	b.Spans[1].Err = "pool: retries exhausted"
	return b
}

const pmGolden = `postmortem bundle /tmp/pm/postmortem-partial-commit-42
  reason:  partial-commit
  time:    2026-01-01T12:00:00.5Z
  pid:     4242
  entries: 4 (2 evicted before dump)
  spans:   2 (render with: dvdcctl trace -in /tmp/pm/postmortem-partial-commit-42/spans.jsonl)
  nodes: 3
  seed: 7

  kinds: chaos=1 note=1 rpc=2  errors=1

last 2 entries:
  12:00:00.140000  rpc   MsgCommit peer=node2 30ms trace=0000000000000007 ERR=pool: retries exhausted
  12:00:00.141000  note  partial-commit epoch=5

errored entries (last 1):
  12:00:00.140000  rpc   MsgCommit peer=node2 30ms trace=0000000000000007 ERR=pool: retries exhausted

errored spans (last 1):
  12:00:00.140000  rpc MsgCommit peer=node2 30ms trace=0000000000000007 ERR=pool: retries exhausted

metrics snapshot: 2 series lines (see metrics.prom)
`

func TestRenderPostmortemGolden(t *testing.T) {
	got := RenderPostmortem(pmFixture(), 2)
	if got != pmGolden {
		t.Fatalf("render drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, pmGolden)
	}
}
