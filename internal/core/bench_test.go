package core

import (
	"testing"

	"dvdc/internal/bufpool"
	"dvdc/internal/vm"
)

// Capture on the benchmark's dense shape — one 16 MiB guest, 77 % of its
// 4 KiB pages dirtied a round, page buffers from the pool — beside a copy of
// the same byte count: MB/s of the first over MB/s of the second is the
// memcpy ratio the benchmark ledger reports as core.capture_vs_memcpy.

const (
	benchPages    = 4096
	benchPageSize = 4096
	benchDirty    = benchPages * 77 / 100
)

func BenchmarkCaptureCopy(b *testing.B) {
	dst, src := make([]byte, benchDirty*benchPageSize), make([]byte, benchDirty*benchPageSize)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, src)
	}
}

func BenchmarkCaptureDelta(b *testing.B) {
	m, err := vm.NewMachine("bench", benchPages, benchPageSize)
	if err != nil {
		b.Fatal(err)
	}
	mem, err := NewMember(m)
	if err != nil {
		b.Fatal(err)
	}
	dirty := func(stamp uint64) {
		for p := 0; p < benchDirty; p++ {
			m.TouchPage(p*benchPages/benchDirty, stamp)
		}
	}
	dirty(1)
	b.SetBytes(benchDirty * benchPageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := mem.CaptureDeltaInto(bufpool.Get)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, p := range d.Pages {
			bufpool.Put(p.Data) // as the runtime does once the round commits
		}
		dirty(uint64(i + 2))
		b.StartTimer()
	}
}
