package core

import (
	"bytes"
	"testing"

	"dvdc/internal/bufpool"
	"dvdc/internal/checkpoint"
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

// BenchmarkCaptureDelta times one capture of the dense shape. "dense" is every
// dirty page changed, no skip (what the dedup-off workloads run). The other
// two run the unchanged-page skip: "store-back" has 7/8 of the dirty pages
// byte-identical to the committed image (the rewrite workload's mix — the
// skip's best case, a compare instead of an XOR, a copy and a buffer), and
// "changed-tail" has every dirty page differ from it only in its last byte —
// the comparison's worst case, a full read of both pages before the same XOR
// and copy "dense" does. MB/s is dirty bytes per second in all three.
func BenchmarkCaptureDelta(b *testing.B) {
	page := func(p int) int { return p * benchPages / benchDirty }
	for _, bc := range []struct {
		name  string
		skip  bool
		dirty func(m *vm.Machine, round uint64)
	}{
		{"dense", false, func(m *vm.Machine, round uint64) {
			for p := 0; p < benchDirty; p++ {
				m.TouchPage(page(p), round)
			}
		}},
		{"store-back", true, func(m *vm.Machine, round uint64) {
			for p := 0; p < benchDirty; p++ {
				if p%8 == 0 {
					m.TouchPage(page(p), round)
				} else {
					m.MutatePage(page(p), func([]byte) {})
				}
			}
		}},
		{"changed-tail", true, func(m *vm.Machine, round uint64) {
			for p := 0; p < benchDirty; p++ {
				m.MutatePage(page(p), func(pg []byte) { pg[len(pg)-1] = byte(round) })
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := vm.NewMachine("bench", benchPages, benchPageSize)
			if err != nil {
				b.Fatal(err)
			}
			mem, err := NewMember(m)
			if err != nil {
				b.Fatal(err)
			}
			bc.dirty(m, 1)
			b.SetBytes(benchDirty * benchPageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, _, _ := mem.Stage(bc.skip)
				d.Pages = make([]checkpoint.PageRecord, 0, d.PageCount())
				for _, r := range d.Runs {
					for pi := r.First; pi < r.First+r.Len; pi++ {
						p := checkpoint.PageRecord{Index: pi, Data: bufpool.Get(benchPageSize)}
						if err := mem.DeltaInto(d, p.Data, pi*benchPageSize); err != nil {
							b.Fatal(err)
						}
						d.Pages = append(d.Pages, p)
					}
				}
				if err := mem.Advance(d.Epoch); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for _, p := range d.Pages {
					bufpool.Put(p.Data) // as the runtime does once the round commits
				}
				bc.dirty(m, uint64(i+2))
				b.StartTimer()
			}
		})
	}
}

// BenchmarkMemberRound times a member's round on the same guest — one 16 MiB
// machine of 4 KiB pages — with "dense" writing 77 % of its pages a round and
// "sparse" 1.5 %: the guest's writes (a page's first write copies its
// pre-image), then Stage, DeltaInto of every staged page and Advance, which
// copies nothing. From the second round on, pre-images come off the member's
// free list: no page is allocated and the footprint stays put, so the
// allocations left are the capture record and its run list. MB/s is written
// bytes per second.
func BenchmarkMemberRound(b *testing.B) {
	for _, bc := range []struct {
		name  string
		pages int
	}{{"dense", benchDirty}, {"sparse", benchPages * 15 / 1000}} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := vm.NewMachine("bench", benchPages, benchPageSize)
			if err != nil {
				b.Fatal(err)
			}
			mem, err := NewMember(m)
			if err != nil {
				b.Fatal(err)
			}
			delta := make([]byte, benchPageSize)
			var stamp uint64
			round := func() {
				for p := 0; p < bc.pages; p++ {
					stamp++
					m.TouchPage(p*benchPages/bc.pages, stamp)
				}
				d, _, _ := mem.Stage(false)
				for _, r := range d.Runs {
					for pi := r.First; pi < r.First+r.Len; pi++ {
						if err := mem.DeltaInto(d, delta, pi*benchPageSize); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := mem.Advance(d.Epoch); err != nil {
					b.Fatal(err)
				}
			}
			round()
			held := mem.Footprint()
			b.SetBytes(int64(bc.pages * benchPageSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			if got := mem.Footprint(); got != held {
				b.Fatalf("the member grew from %d to %d bytes after its first round", held, got)
			}
		})
	}
}

// BenchmarkKeeperStageCommit times a keeper's round on the same block size —
// one 16 MiB parity block of a three-member XOR group — with one member's
// 4 KiB delta staged at every page of the set, then committed: "dense" folds
// 77 % of the pages (dense-xor's share), "sparse" 1.5 % (sparse-xor's). From
// the second round on, staged pages come off the keeper's free list, so a
// steady-state round allocates nothing. MB/s is folded bytes per second.
func BenchmarkKeeperStageCommit(b *testing.B) {
	for _, bc := range []struct {
		name  string
		pages int
	}{{"dense", benchDirty}, {"sparse", benchPages * 15 / 1000}} {
		b.Run(bc.name, func(b *testing.B) {
			zero := make([]byte, benchPages*benchPageSize)
			k, err := NewMKeeper(0, 0, 1, map[string][]byte{"a": zero, "b": zero, "c": zero})
			if err != nil {
				b.Fatal(err)
			}
			delta := bytes.Repeat([]byte{0xA5}, benchPageSize)
			epochs := map[string]uint64{"a": 0}
			round := func() {
				for p := 0; p < bc.pages; p++ {
					if err := k.stage("a", p*benchPages/bc.pages*benchPageSize, delta); err != nil {
						b.Fatal(err)
					}
				}
				epochs["a"]++
				if err := k.commit(epochs); err != nil {
					b.Fatal(err)
				}
			}
			round()
			b.SetBytes(int64(bc.pages * benchPageSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}
