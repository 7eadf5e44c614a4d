package parity

import "testing"

// The XOR kernels on image-sized (out-of-cache) blocks, each beside a copy
// of the same bytes: MB/s of a kernel over MB/s of BenchmarkCopy16MiB is the
// memcpy ratio the benchmark ledger reports as parity.xor_vs_memcpy.

const benchBlock = 16 << 20

func benchBlocks(b *testing.B) (dst, src []byte) {
	b.Helper()
	dst, src = make([]byte, benchBlock), make([]byte, benchBlock)
	for i := range src {
		dst[i], src[i] = byte(i), byte(i*7+1)
	}
	b.SetBytes(benchBlock)
	b.ResetTimer()
	return dst, src
}

func BenchmarkCopy16MiB(b *testing.B) {
	dst, src := benchBlocks(b)
	for i := 0; i < b.N; i++ {
		copy(dst, src)
	}
}

func BenchmarkXORInto(b *testing.B) {
	dst, src := benchBlocks(b)
	for i := 0; i < b.N; i++ {
		if err := XORInto(dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXORDrain leaves src zero after the first iteration; the kernel is
// data-independent, so every iteration still costs one read-modify-write of
// dst and one read-then-clear of src.
func BenchmarkXORDrain(b *testing.B) {
	dst, src := benchBlocks(b)
	for i := 0; i < b.N; i++ {
		if err := XORDrain(dst, src); err != nil {
			b.Fatal(err)
		}
	}
}
