package parity

import "fmt"

// GF(2^8) arithmetic with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d, the conventional Reed-Solomon modulus, under which 2 generates the
// multiplicative group). Three table tiers are built once at package init:
//
//   - log/antilog tables — the classic representation, kept both as the
//     generator for the flat tables below and as the loop-based reference
//     the differential test battery compares against;
//   - a full 256x256 product table plus an inverse table — the scalar ops,
//     the slice kernel's tails and the whole slice on hosts without AVX2
//     (one 256-byte row, no per-byte branch, stays in L1);
//   - on amd64, split-nibble tables (gf_amd64.go) feeding the AVX2 kernel
//     the RS small-write fold and the recovery combine spend their time in.

const gfPoly = 0x11d

var (
	gfExp [512]byte // generator powers, doubled so mul avoids a mod
	gfLog [256]int

	gfMulTab [256][256]byte // gfMulTab[a][b] = a*b in GF(256)
	gfInvTab [256]byte      // gfInvTab[a] = a^-1 (entry 0 unused)

	// gfVector is set at init when the CPU has the vector kernel's
	// instructions (AVX2 on amd64); tests clear it to force the table walk.
	gfVector bool
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			gfMulTab[a][b] = gfExp[gfLog[a]+gfLog[b]]
		}
		gfInvTab[a] = gfExp[255-gfLog[a]]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte { return gfMulTab[a][b] }

// gfInv returns the multiplicative inverse; a must be nonzero.
func gfInv(a byte) byte {
	if a == 0 {
		panic("parity: GF(256) division by zero")
	}
	return gfInvTab[a]
}

// gfMulLogExp is the loop-based log/antilog multiply this package used before
// the flat product table. It is retained as the independent reference the
// differential tests compare gfMul and the slice kernels against.
func gfMulLogExp(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

// gfDivLogExp is the log/antilog division reference (b must be nonzero).
func gfDivLogExp(a, b byte) byte {
	if b == 0 {
		panic("parity: GF(256) division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExp[gfLog[a]+255-gfLog[b]]
}

// gfMulSliceLogExp is the loop-based slice kernel (per-byte zero test plus
// log/antilog lookups), retained as the differential-test reference for
// gfMulSlice.
func gfMulSliceLogExp(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		_ = XORInto(dst, src) // lengths checked by caller
		return
	}
	lc := gfLog[c]
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[lc+gfLog[s]]
		}
	}
}

// gfMulSlice computes dst[i] ^= c * src[i] for all i. c == 0 is a no-op,
// c == 1 degenerates to XOR; otherwise the vector kernel folds the 32-byte
// multiple prefix and one product-table row the tail, with no per-byte branch.
func gfMulSlice(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		_ = XORInto(dst, src) // lengths checked by caller
		return
	}
	row := &gfMulTab[c]
	n := len(src)
	i := gfMulSliceVec(dst, src, c)
	for ; i+8 <= n; i += 8 {
		dst[i] ^= row[src[i]]
		dst[i+1] ^= row[src[i+1]]
		dst[i+2] ^= row[src[i+2]]
		dst[i+3] ^= row[src[i+3]]
		dst[i+4] ^= row[src[i+4]]
		dst[i+5] ^= row[src[i+5]]
		dst[i+6] ^= row[src[i+6]]
		dst[i+7] ^= row[src[i+7]]
	}
	for ; i < n; i++ {
		dst[i] ^= row[src[i]]
	}
}

// MulSliceInto computes dst[i] ^= c * src[i] element-wise — the GF(256)
// analogue of XORInto (and exactly XORInto when c == 1). dst and src must
// have equal length and must not partially overlap; the exact same slice is
// allowed only for c in {0, 1} (for other coefficients the kernel would read
// bytes it already rewrote).
func MulSliceInto(dst, src []byte, c byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: dst %d, src %d", ErrLengthMismatch, len(dst), len(src))
	}
	if !aliasable(dst, src) {
		return fmt.Errorf("%w: dst and src share %d-byte backing range", ErrOverlap, len(dst))
	}
	if c > 1 && len(dst) > 0 && &dst[0] == &src[0] {
		return fmt.Errorf("%w: dst aliases src under coefficient %d", ErrOverlap, c)
	}
	gfMulSlice(dst, src, c)
	return nil
}
