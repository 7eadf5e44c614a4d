package health

import (
	"testing"
	"time"

	"dvdc/internal/obs"
)

func BenchmarkTickDefaultRules(b *testing.B) {
	reg := obs.NewRegistry()
	for i := 0; i < 200; i++ {
		reg.Counter("dvdc_filler_total", "n", time.Duration(i).String()).Inc()
	}
	reg.Histogram("dvdc_round_seconds", obs.LatencyBuckets()).Observe(0.015)
	ev := New(Options{Registry: reg, FixedStep: time.Second})
	InstallDefaultRules(ev, reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Tick()
	}
}
