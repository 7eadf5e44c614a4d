package health

import (
	"testing"
	"time"

	"dvdc/internal/obs"
)

func TestStartTicksWallClock(t *testing.T) {
	reg := obs.NewRegistry()
	ev := New(Options{Registry: reg, Interval: 50 * time.Millisecond})
	InstallDefaultRules(ev, reg)
	ev.Start()
	defer ev.Stop()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if ev.Report().Ticks >= 2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("evaluator never ticked: %d", ev.Report().Ticks)
}
