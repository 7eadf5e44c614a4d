package collect

import (
	"strings"
	"testing"
	"time"

	"dvdc/internal/obs"
)

func TestAttributeNamesDelayedPeer(t *testing.T) {
	// roundSpans delays node2's commit rpc: the rpc span runs 78ms while its
	// handler span covers only 9ms — the shape a chaos delay fault produces.
	a := Attribute(BuildTree(roundSpans()))
	if a == nil {
		t.Fatal("Attribute returned nil for a well-formed tree")
	}
	if a.Trace != 7 || a.RootLane != "coord" || a.Wall != 100*time.Millisecond {
		t.Fatalf("attribution header = %+v", a)
	}
	if a.Straggler != "node2" || a.StragglerSpan != "rpc MsgCommit" {
		t.Fatalf("straggler = %q in %q, want node2 in rpc MsgCommit", a.Straggler, a.StragglerSpan)
	}
	if a.StragglerDur != 69*time.Millisecond { // 78ms rpc minus the 9ms handler
		t.Fatalf("straggler self time = %v, want 69ms", a.StragglerDur)
	}

	// Lanes: node2 (2+10+69+9), node1 (2+16+2+8), coord (prepare and commit
	// each wait 2ms past their last rpc; the round is covered by them).
	wantLanes := []LaneTime{
		{Lane: "node2", Busy: 90 * time.Millisecond, Spans: 4},
		{Lane: "node1", Busy: 28 * time.Millisecond, Spans: 4},
		{Lane: "coord", Busy: 4 * time.Millisecond, Spans: 3},
	}
	if len(a.Lanes) != len(wantLanes) {
		t.Fatalf("lanes = %+v", a.Lanes)
	}
	for i, want := range wantLanes {
		if a.Lanes[i] != want {
			t.Fatalf("lane %d = %+v, want %+v", i, a.Lanes[i], want)
		}
	}

	// Critical path descends through the span that finished last at each level.
	wantPath := []string{"round", "commit", "rpc MsgCommit", "node.MsgCommit"}
	if len(a.Path) != len(wantPath) {
		t.Fatalf("path = %+v", a.Path)
	}
	for i, want := range wantPath {
		if a.Path[i].Name != want {
			t.Fatalf("path step %d = %+v, want %s", i, a.Path[i], want)
		}
	}
	if got := a.String(); got != "straggler node2 (rpc MsgCommit, 69ms of 100ms round)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestAttributeDegenerate(t *testing.T) {
	if Attribute(nil) != nil {
		t.Fatal("Attribute(nil) != nil")
	}
	// Double-rooted tree has no root to attribute from.
	spans := []obs.Span{
		mkSpan(3, 1, 0, "round", "coord", 0, 10),
		mkSpan(3, 2, 0, "stray", "coord", 0, 5),
	}
	if Attribute(BuildTree(spans)) != nil {
		t.Fatal("Attribute on double-rooted tree != nil")
	}
	// Coordinator-only round: no off-root lane, so no straggler.
	solo := Attribute(BuildTree([]obs.Span{mkSpan(4, 1, 0, "round", "coord", 0, 10)}))
	if solo == nil || solo.Straggler != "" {
		t.Fatalf("solo attribution = %+v, want balanced", solo)
	}
	if got := solo.String(); got != "balanced round (10ms wall)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestAttributionExport(t *testing.T) {
	reg := obs.NewRegistry()
	a := Attribute(BuildTree(roundSpans()))
	a.Export(reg)
	a.Export(reg) // second round with the same straggler

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp := b.String()
	if v, ok := MetricValue(exp, "dvdc_round_straggler_total", "node=node2"); !ok || v != 2 {
		t.Fatalf("straggler counter = %v, %v\n%s", v, ok, exp)
	}
	if v, ok := MetricValue(exp, "dvdc_round_straggler_seconds"); !ok || v != 0.069 {
		t.Fatalf("straggler seconds = %v, %v\n%s", v, ok, exp)
	}

	// Nil and balanced attributions must not publish anything.
	var nilAttr *Attribution
	nilAttr.Export(reg)
	(&Attribution{}).Export(reg)
}

// TestAttributeParallelChildren pins self time as the span's duration minus
// the union of its child intervals: two concurrent 50ms children of a 100ms
// root cover 50ms of it once, not 100ms, so the root keeps 50ms of its own.
func TestAttributeParallelChildren(t *testing.T) {
	a := Attribute(BuildTree([]obs.Span{
		mkSpan(9, 1, 0, "round", "coord", 0, 100),
		mkSpan(9, 2, 1, "rpc MsgPrepare", "", 10, 60, "peer", "node1"),
		mkSpan(9, 3, 1, "rpc MsgPrepare", "", 10, 60, "peer", "node2"),
	}))
	var coord time.Duration
	for _, l := range a.Lanes {
		if l.Lane == "coord" {
			coord = l.Busy
		}
	}
	if coord != 50*time.Millisecond || a.Path[0].Self != 50*time.Millisecond {
		t.Fatalf("coord self time = %v (path %v), want 50ms: lanes %+v", coord, a.Path[0].Self, a.Lanes)
	}
}

func TestOutlierTracker(t *testing.T) {
	o := NewOutlierTracker() // window 256, factor 3, minimum 8 samples
	for i := 0; i < 10; i++ {
		o.Observe("node1", time.Millisecond)
		o.Observe("node2", time.Millisecond)
		o.Observe("node3", 50*time.Millisecond)
	}
	if got := o.Peers(); len(got) != 3 || got[0] != "node1" || got[2] != "node3" {
		t.Fatalf("Peers = %v", got)
	}
	if got := o.P99("node3"); got != 50*time.Millisecond {
		t.Fatalf("P99(node3) = %v", got)
	}
	if got := o.P99("ghost"); got != 0 {
		t.Fatalf("P99(ghost) = %v", got)
	}
	if got := o.ClusterMedian(); got != time.Millisecond {
		t.Fatalf("ClusterMedian = %v", got)
	}
	if o.IsOutlier("node1") || !o.IsOutlier("node3") {
		t.Fatalf("outlier flags wrong: node1=%v node3=%v", o.IsOutlier("node1"), o.IsOutlier("node3"))
	}
	if got := o.Outliers(); len(got) != 1 || got[0] != "node3" {
		t.Fatalf("Outliers = %v", got)
	}
}

func TestOutlierTrackerMinSamples(t *testing.T) {
	o := NewOutlierTracker()
	for i := 0; i < 10; i++ {
		o.Observe("steady", time.Millisecond)
	}
	for i := 0; i < outlierMinimum-1; i++ { // one short of the minimum
		o.Observe("slow", 100*time.Millisecond)
	}
	if o.IsOutlier("slow") {
		t.Fatal("flagged a peer with fewer than outlierMinimum samples")
	}
	o.Observe("slow", 100*time.Millisecond)
	if !o.IsOutlier("slow") {
		t.Fatal("did not flag a 100x-median peer at outlierMinimum samples")
	}
}

func TestOutlierTrackerObserveSpansAndExport(t *testing.T) {
	reg := obs.NewRegistry()
	o := NewOutlierTracker()
	o.SetRegistry(reg)
	spans := []obs.Span{
		mkSpan(1, 1, 0, "rpc MsgCommit", "", 0, 60, "peer", "node9"),
		mkSpan(1, 2, 0, "node.MsgCommit", "node9", 0, 50), // handler: no peer attr, skipped
		mkSpan(1, 3, 0, "rpc MsgCommit", "", 0, 2, "peer", "node8"),
	}
	for i := 0; i < 8; i++ {
		o.ObserveSpans(spans)
	}
	if got := o.Peers(); len(got) != 2 {
		t.Fatalf("Peers = %v, want rpc spans only", got)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp := b.String()
	if v, ok := MetricValue(exp, "dvdc_peer_latency_p99_seconds", "peer=node9"); !ok || v != 0.06 {
		t.Fatalf("p99 gauge = %v, %v\n%s", v, ok, exp)
	}
	if v, ok := MetricValue(exp, "dvdc_peer_latency_outlier", "peer=node9"); !ok || v != 1 {
		t.Fatalf("outlier gauge = %v, %v\n%s", v, ok, exp)
	}
	if v, ok := MetricValue(exp, "dvdc_peer_latency_outlier", "peer=node8"); !ok || v != 0 {
		t.Fatalf("outlier gauge node8 = %v, %v\n%s", v, ok, exp)
	}
}

// TestOutlierTrackerRecoveryDeflags pins the long-horizon recovery path: a
// peer flagged as habitually slow must lose the flag once enough fast samples
// roll its window over — a transient fault (a backup job, a flapping link
// since repaired) must not brand the peer forever. The window is the horizon:
// with window w, exactly w fast samples fully displace the slow era.
func TestOutlierTrackerRecoveryDeflags(t *testing.T) {
	const window = outlierWindow
	o := NewOutlierTracker()
	for i := 0; i < window; i++ {
		o.Observe("node1", time.Millisecond)
		o.Observe("node2", time.Millisecond)
		o.Observe("node3", 50*time.Millisecond)
	}
	if !o.IsOutlier("node3") {
		t.Fatal("node3 not flagged during its slow era")
	}

	// Recovery: fast samples displace the slow ones one by one. Halfway
	// through, the 50ms samples still dominate the p99 and the flag holds.
	for i := 0; i < window/2; i++ {
		o.Observe("node3", time.Millisecond)
	}
	if !o.IsOutlier("node3") {
		t.Fatal("flag dropped while slow samples still sit in the window")
	}
	for i := 0; i < window/2; i++ {
		o.Observe("node3", time.Millisecond)
	}
	if o.IsOutlier("node3") {
		t.Fatalf("recovered peer still flagged after a full window of fast samples (p99 %v, median %v)",
			o.P99("node3"), o.ClusterMedian())
	}
	if got := o.Outliers(); len(got) != 0 {
		t.Fatalf("Outliers after recovery = %v", got)
	}
	if got := o.P99("node3"); got != time.Millisecond {
		t.Fatalf("P99 after recovery = %v, want 1ms", got)
	}
}

// TestOutlierTrackerObserveDataSpans pins the data-plane filter: only delta
// and delta-chunk rpc spans feed the windows, because control rpc spans fold
// a slow keeper's stall into every shipping member's latency (the smear that
// makes the cluster median chase the fault).
func TestOutlierTrackerObserveDataSpans(t *testing.T) {
	o := NewOutlierTracker()
	spans := []obs.Span{
		mkSpan(1, 1, 0, "rpc delta-chunk", "", 0, 40, "peer", "node1"),
		mkSpan(1, 2, 0, "rpc delta-chunk", "", 0, 35, "peer", "node2"),
		mkSpan(1, 3, 0, "rpc MsgPrepare", "", 0, 90, "peer", "node3"), // control: skipped
		mkSpan(1, 4, 0, "node.MsgDeltaChunk", "node4", 0, 30),         // handler, no peer attr
		mkSpan(1, 5, 0, "rpc delta-chunk", "", 0, 20),                 // no peer attr: skipped
	}
	o.ObserveDataSpans(spans)
	if got := o.Peers(); len(got) != 2 || got[0] != "node1" || got[1] != "node2" {
		t.Fatalf("Peers = %v, want data-plane ships only", got)
	}
	if got := o.P99("node3"); got != 0 {
		t.Fatalf("control span leaked into the window: P99(node3) = %v", got)
	}
}

// TestOutlierTrackerAllPeersEquallySlow pins the false-positive edge case:
// when the whole cluster degrades in lockstep there is no outlier — the
// flag is relative to the cluster median, not an absolute threshold, so a
// uniformly slow cluster must not name a scapegoat.
func TestOutlierTrackerAllPeersEquallySlow(t *testing.T) {
	o := NewOutlierTracker()
	for i := 0; i < 20; i++ {
		o.Observe("node1", 80*time.Millisecond)
		o.Observe("node2", 80*time.Millisecond)
		o.Observe("node3", 80*time.Millisecond)
		o.Observe("node4", 80*time.Millisecond)
	}
	if got := o.Outliers(); len(got) != 0 {
		t.Fatalf("uniformly slow cluster flagged %v", got)
	}
	// Even with mild jitter (well under the 3x-median factor) nobody flags.
	for i := 0; i < 20; i++ {
		o.Observe("node1", 60*time.Millisecond)
		o.Observe("node2", 90*time.Millisecond)
		o.Observe("node3", 120*time.Millisecond)
		o.Observe("node4", 150*time.Millisecond)
	}
	if got := o.Outliers(); len(got) != 0 {
		t.Fatalf("mild jitter flagged %v", got)
	}
}
