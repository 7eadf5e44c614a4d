package parity

import "testing"

// The XOR and GF(256) kernels on image-sized (out-of-cache) blocks, each
// beside a copy of the same bytes: MB/s of a kernel over MB/s of
// BenchmarkCopy16MiB is the memcpy ratio the benchmark ledger reports as
// parity.xor_vs_memcpy.

const benchBlock = 16 << 20

func benchBlocks(b *testing.B, n int) (dst, src []byte) {
	b.Helper()
	dst, src = make([]byte, n), make([]byte, n)
	for i := range src {
		dst[i], src[i] = byte(i), byte(i*7+1)
	}
	b.SetBytes(int64(n))
	b.ResetTimer()
	return dst, src
}

func BenchmarkCopy16MiB(b *testing.B) {
	dst, src := benchBlocks(b, benchBlock)
	for i := 0; i < b.N; i++ {
		copy(dst, src)
	}
}

func BenchmarkXORInto(b *testing.B) {
	dst, src := benchBlocks(b, benchBlock)
	for i := 0; i < b.N; i++ {
		if err := XORInto(dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulSliceInto is the GF(256) multiply-accumulate under the
// non-unit coefficient the benchmark ledger's parity.gf_mul_mb_s uses, at a
// fold page, a read-chunk slot and the image-sized block above.
func BenchmarkMulSliceInto(b *testing.B) {
	for _, shape := range []struct {
		name string
		n    int
	}{{"4KiB", 4 << 10}, {"64KiB", 64 << 10}, {"16MiB", benchBlock}} {
		b.Run(shape.name, func(b *testing.B) {
			dst, src := benchBlocks(b, shape.n)
			for i := 0; i < b.N; i++ {
				if err := MulSliceInto(dst, src, 0x57); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkXORDrain leaves src zero after the first iteration; the kernel is
// data-independent, so every iteration still costs one read-modify-write of
// dst and one read-then-clear of src.
func BenchmarkXORDrain(b *testing.B) {
	dst, src := benchBlocks(b, benchBlock)
	for i := 0; i < b.N; i++ {
		if err := XORDrain(dst, src); err != nil {
			b.Fatal(err)
		}
	}
}
