package parity

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"unsafe"
)

// ErrLengthMismatch is returned when blocks participating in one parity
// computation do not all share the same length.
var ErrLengthMismatch = errors.New("parity: block length mismatch")

// ErrOverlap is returned when dst and src partially overlap: a kernel moving
// more than a byte at a time would read src bytes it already rewrote through
// dst, and subtle.XORBytes panics on such a call rather than compute garbage.
var ErrOverlap = errors.New("parity: dst and src overlap")

// aliasable reports whether dst and src may be passed to the slice kernels:
// disjoint ranges, or the exact same range (x^x = 0 elementwise, which
// subtle.XORBytes also accepts). A partial overlap is rejected.
func aliasable(dst, src []byte) bool {
	if len(dst) == 0 || len(src) == 0 {
		return true
	}
	d := uintptr(unsafe.Pointer(unsafe.SliceData(dst)))
	s := uintptr(unsafe.Pointer(unsafe.SliceData(src)))
	if d == s && len(dst) == len(src) {
		return true
	}
	return d+uintptr(len(dst)) <= s || s+uintptr(len(src)) <= d
}

// XORInto xors src into dst element-wise. dst and src must have equal length
// and must not partially overlap (the exact same slice is allowed and zeroes
// dst; any other overlap returns ErrOverlap). The bytes move through
// crypto/subtle.XORBytes, the standard library's assembly-backed kernel and
// the only XOR loop on the data path; the guards stay in front of it because
// subtle truncates to the shorter operand and panics on an inexact overlap
// where this package promises an error.
func XORInto(dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: dst %d, src %d", ErrLengthMismatch, len(dst), len(src))
	}
	if !aliasable(dst, src) {
		return fmt.Errorf("%w: dst and src share %d-byte backing range", ErrOverlap, len(dst))
	}
	subtle.XORBytes(dst, dst, src)
	return nil
}

// drainBlock is how much of src XORDrain folds before zeroing it: small
// enough that clear hits lines the XOR just pulled into cache (the best of
// 4 KiB … 256 KiB under BenchmarkXORDrain), so src streams from memory once.
const drainBlock = 32 << 10

// XORDrain xors src into dst element-wise and zeroes src — the commit kernel
// for accumulation buffers that must return to all-zero for reuse. It runs
// the XORInto kernel and clear over cache-sized blocks in turn, where a
// whole-buffer XORInto followed by clear would stream src through memory
// twice. Same aliasing contract as XORInto, except dst and src may not be the
// same slice (draining a buffer into itself would zero both). It backs
// core.MKeeper.DrainPendingRanges, the in-process oracle and layer-benchmark
// path; the runtime's keepers commit by swapping staged pages and drain
// nothing.
func XORDrain(dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: dst %d, src %d", ErrLengthMismatch, len(dst), len(src))
	}
	if len(dst) > 0 && (!aliasable(dst, src) || &dst[0] == &src[0]) {
		return fmt.Errorf("%w: dst and src share %d-byte backing range", ErrOverlap, len(dst))
	}
	for len(src) > 0 {
		n := min(len(src), drainBlock)
		subtle.XORBytes(dst[:n], dst[:n], src[:n])
		clear(src[:n])
		dst, src = dst[n:], src[n:]
	}
	return nil
}

// XOR computes the XOR of all blocks into a freshly allocated block.
// At least one block is required and all blocks must have equal length.
func XOR(blocks ...[]byte) ([]byte, error) {
	if len(blocks) == 0 {
		return nil, errors.New("parity: XOR of zero blocks")
	}
	out := make([]byte, len(blocks[0]))
	rest := blocks[1:]
	if len(rest) > 0 && len(rest[0]) == len(out) {
		// First pair three-operand: out is written once, not copied then XORed.
		subtle.XORBytes(out, blocks[0], rest[0])
		rest = rest[1:]
	} else {
		copy(out, blocks[0]) // lone block, or XORInto reports the mismatch
	}
	for _, b := range rest {
		if err := XORInto(out, b); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Parity computes the single-parity block protecting the given data blocks.
// It is XOR with a name matching the RAID-5 vocabulary used elsewhere.
func Parity(data ...[]byte) ([]byte, error) { return XOR(data...) }

// ReconstructOne recovers the single missing block of a RAID-5 style group.
// survivors must contain the k-1 surviving data blocks plus the parity block
// (order is irrelevant: XOR is commutative). The result has the common block
// length.
func ReconstructOne(survivors ...[]byte) ([]byte, error) {
	if len(survivors) == 0 {
		return nil, errors.New("parity: reconstruct from zero survivors")
	}
	return XOR(survivors...)
}
