package parity

// Differential and property tests: every optimized kernel (assembly-backed
// XOR, table-driven GF(256) arithmetic, RS matrix encode, RDP) is checked
// against a naive bytewise reference on randomized shapes — odd tails, chunk-
// boundary-straddling offsets, misaligned operands, degenerate sizes — plus
// encode→erase→reconstruct round trips. The references are deliberately slow
// and obvious.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"unsafe"
)

// naiveXOR is the bytewise reference for XORInto.
func naiveXOR(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// naiveGfMul multiplies in GF(256) by Russian-peasant shift-and-add over the
// field polynomial, independent of the log/exp tables.
func naiveGfMul(a, b byte) byte {
	var prod uint16
	aa, bb := uint16(a), uint16(b)
	for bb != 0 {
		if bb&1 != 0 {
			prod ^= aa
		}
		aa <<= 1
		if aa&0x100 != 0 {
			aa ^= gfPoly
		}
		bb >>= 1
	}
	return byte(prod)
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// Sizes that stress a word-at-a-time kernel: zero, sub-word, word-aligned,
// word+tail, and page-scale odd lengths.
var awkwardSizes = []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 1024, 4093, 4096}

func TestXORIntoMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range awkwardSizes {
		for trial := 0; trial < 8; trial++ {
			dst := randBytes(rng, n)
			src := randBytes(rng, n)
			want := append([]byte(nil), dst...)
			naiveXOR(want, src)
			if err := XORInto(dst, src); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("n=%d: XORInto diverges from bytewise reference", n)
			}
		}
	}
}

func TestXORIntoOverlapGuard(t *testing.T) {
	// Partial overlap in either direction must be rejected: the word loop
	// would read bytes it already rewrote.
	back := make([]byte, 64)
	if err := XORInto(back[0:32], back[8:40]); err == nil {
		t.Fatal("forward partial overlap accepted")
	} else if !bytes.Contains([]byte(err.Error()), []byte("overlap")) {
		t.Fatalf("wrong error: %v", err)
	}
	if err := XORInto(back[8:40], back[0:32]); err == nil {
		t.Fatal("backward partial overlap accepted")
	}
	// One-byte overlap at the boundary is still an overlap.
	if err := XORInto(back[0:16], back[15:31]); err == nil {
		t.Fatal("single-byte overlap accepted")
	}
	// The exact same slice is legal and must zero dst (x ^ x = 0).
	same := randBytes(rand.New(rand.NewSource(2)), 33)
	if err := XORInto(same, same); err != nil {
		t.Fatalf("exact alias rejected: %v", err)
	}
	for i, v := range same {
		if v != 0 {
			t.Fatalf("exact alias did not zero byte %d: %#x", i, v)
		}
	}
	// Adjacent disjoint subslices of one array are fine.
	if err := XORInto(back[0:16], back[16:32]); err != nil {
		t.Fatalf("disjoint subslices rejected: %v", err)
	}
	// Empty slices never overlap.
	if err := XORInto(back[8:8], back[8:8]); err != nil {
		t.Fatalf("empty slices rejected: %v", err)
	}
}

func TestXORDrainMatchesXORIntoPlusClear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range awkwardSizes {
		for trial := 0; trial < 8; trial++ {
			dst := randBytes(rng, n)
			src := randBytes(rng, n)
			wantDst := append([]byte(nil), dst...)
			naiveXOR(wantDst, src)
			if err := XORDrain(dst, src); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if !bytes.Equal(dst, wantDst) {
				t.Fatalf("n=%d: XORDrain dst diverges from XORInto reference", n)
			}
			for i, v := range src {
				if v != 0 {
					t.Fatalf("n=%d: src byte %d not drained: %#x", n, i, v)
				}
			}
		}
	}
}

func TestXORDrainRejectsAliases(t *testing.T) {
	back := make([]byte, 64)
	if err := XORDrain(back[0:32], back[8:40]); err == nil {
		t.Fatal("partial overlap accepted")
	}
	// Unlike XORInto, the exact same slice is illegal: draining a buffer
	// into itself would zero both sides.
	same := make([]byte, 32)
	if err := XORDrain(same, same); err == nil {
		t.Fatal("exact alias accepted")
	}
	if err := XORDrain(back[0:16], back[16:32]); err != nil {
		t.Fatalf("disjoint subslices rejected: %v", err)
	}
	if err := XORDrain(back[8:8], back[8:8]); err != nil {
		t.Fatalf("empty slices rejected: %v", err)
	}
}

// misaligned returns a 0xA5-filled frame and the offset of an n-byte window
// in it that starts exactly mis bytes (0…31) past a 32-byte boundary, so a
// vector kernel's alignment paths are hit on purpose, not by allocator luck.
func misaligned(n, mis int) (frame []byte, off int) {
	frame = bytes.Repeat([]byte{0xA5}, n+128)
	base := int(uintptr(unsafe.Pointer(unsafe.SliceData(frame))) & 31)
	return frame, 32 + (32-base)&31 + mis
}

// frameIntact reports whether every frame byte outside [off, off+n) is still
// the 0xA5 fill: a head or tail path that overruns its operand by one byte
// would corrupt the neighbouring page of a parity block.
func frameIntact(frame []byte, off, n int) bool {
	return bytes.Count(frame[:off], []byte{0xA5}) == off &&
		bytes.Count(frame[off+n:], []byte{0xA5}) == len(frame)-off-n
}

// kernelLengths is every length 0…257 (each 16-byte body / 8-byte / 1-byte
// tail mix of the assembly kernel) plus page- and drainBlock-straddling sizes.
func kernelLengths() []int {
	ns := make([]int, 0, 262)
	for n := 0; n <= 257; n++ {
		ns = append(ns, n)
	}
	return append(ns, 4095, 4096, 4097, 65536)
}

// checkXORKernels runs XORInto, XORDrain and the variadic XOR on copies of a
// and b placed dm and sm bytes off 16-byte alignment and compares each with
// the bytewise loop; it is the body of both the exhaustive sweep and the fuzz
// target.
func checkXORKernels(t *testing.T, a, b []byte, dm, sm int) {
	t.Helper()
	n := len(a)
	want := append([]byte(nil), a...)
	naiveXOR(want, b)
	dFrame, dOff := misaligned(n, dm)
	sFrame, sOff := misaligned(n, sm)
	dst, src := dFrame[dOff:dOff+n], sFrame[sOff:sOff+n]
	intact := func() bool { return frameIntact(dFrame, dOff, n) && frameIntact(sFrame, sOff, n) }

	copy(dst, a)
	copy(src, b)
	if err := XORInto(dst, src); err != nil {
		t.Fatalf("XORInto n=%d dst+%d src+%d: %v", n, dm, sm, err)
	}
	if !bytes.Equal(dst, want) || !bytes.Equal(src, b) || !intact() {
		t.Fatalf("XORInto n=%d dst+%d src+%d diverges from bytewise reference", n, dm, sm)
	}

	// Both operands misaligned and read-only: want ^ b = a. Then a third
	// block through XOR's two-operand tail: b ^ want ^ a = 0.
	got, err := XOR(dst, src)
	if err != nil {
		t.Fatalf("XOR n=%d dst+%d src+%d: %v", n, dm, sm, err)
	}
	if !bytes.Equal(got, a) || !bytes.Equal(dst, want) || !bytes.Equal(src, b) {
		t.Fatalf("XOR n=%d dst+%d src+%d diverges from bytewise reference", n, dm, sm)
	}
	if got, err = XOR(src, dst, a); err != nil || !bytes.Equal(got, make([]byte, n)) {
		t.Fatalf("XOR of three n=%d dst+%d src+%d: err %v, want all zero", n, dm, sm, err)
	}

	copy(dst, a)
	if err := XORDrain(dst, src); err != nil {
		t.Fatalf("XORDrain n=%d dst+%d src+%d: %v", n, dm, sm, err)
	}
	if !bytes.Equal(dst, want) || !bytes.Equal(src, make([]byte, n)) || !intact() {
		t.Fatalf("XORDrain n=%d dst+%d src+%d: dst off the reference or src not drained", n, dm, sm)
	}
}

// TestXORKernelsMatchNaiveAtEveryLengthAndAlignment is the seam test for the
// assembly kernel: it has alignment and tail paths the old word loop did not.
func TestXORKernelsMatchNaiveAtEveryLengthAndAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range kernelLengths() {
		a, b := randBytes(rng, n), randBytes(rng, n)
		for dm := 0; dm < 16; dm++ {
			for sm := 0; sm < 16; sm++ {
				checkXORKernels(t, a, b, dm, sm)
			}
		}
	}
}

// checkXORAliasContract pins what the guards in front of the kernel promise
// for dst = back[:n] against src = back[shift:shift+n]: shift 0 is the exact
// alias (XORInto zeroes it, XORDrain refuses), 0 < shift < n is a partial
// overlap both refuse with ErrOverlap leaving every byte as it was, and
// shift == n is disjoint. subtle.XORBytes would panic on the partial overlap;
// reaching it fails the test by that panic.
func checkXORAliasContract(t *testing.T, back []byte, n, shift int) {
	t.Helper()
	orig := append([]byte(nil), back...)
	lo, hi := back[:n], back[shift:shift+n]
	partial := shift > 0 && shift < n
	kernels := []struct {
		name string
		run  func(dst, src []byte) error
	}{{"XORInto", XORInto}, {"XORDrain", XORDrain}}
	for _, pair := range [][2][]byte{{lo, hi}, {hi, lo}} {
		for _, k := range kernels {
			name, err := k.name, k.run(pair[0], pair[1])
			refuse := partial || (shift == 0 && n > 0 && name == "XORDrain")
			switch {
			case refuse && !errors.Is(err, ErrOverlap):
				t.Fatalf("%s n=%d shift=%d: err %v, want ErrOverlap", name, n, shift, err)
			case refuse && !bytes.Equal(back, orig):
				t.Fatalf("%s n=%d shift=%d: refused call changed the buffer", name, n, shift)
			case !refuse && err != nil:
				t.Fatalf("%s n=%d shift=%d: %v", name, n, shift, err)
			case !refuse && shift == 0 && !bytes.Equal(lo, make([]byte, n)):
				t.Fatalf("%s n=%d: exact alias did not zero the block", name, n)
			}
			copy(back, orig)
		}
	}
	// XOR only reads its operands, so any overlap between them is legal.
	want := append([]byte(nil), lo...)
	naiveXOR(want, hi)
	if got, err := XOR(lo, hi); err != nil || !bytes.Equal(got, want) || !bytes.Equal(back, orig) {
		t.Fatalf("XOR of overlapping operands n=%d shift=%d: err %v", n, shift, err)
	}
}

func TestXORKernelAliasContract(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, 2, 15, 16, 17, 33, 256, 4097} {
		for shift := 0; shift <= n; shift++ {
			checkXORAliasContract(t, randBytes(rng, 2*n), n, shift)
		}
	}
	// A length mismatch is an error from every entry point, wherever the
	// short block sits, never a silent truncation to the shorter operand.
	a, b := randBytes(rng, 40), randBytes(rng, 39)
	_, errSecond := XOR(a, b)
	_, errThird := XOR(a, a, b)
	for name, err := range map[string]error{
		"XORInto": XORInto(a, b), "XORDrain": XORDrain(b, a), "XOR/2nd": errSecond, "XOR/3rd": errThird,
	} {
		if !errors.Is(err, ErrLengthMismatch) {
			t.Errorf("%s: err %v, want ErrLengthMismatch", name, err)
		}
	}
}

// FuzzXORKernels cross-checks the XOR kernels against the bytewise loop on
// fuzz-chosen data, operand misalignment and overlap shift.
func FuzzXORKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(3), uint8(9), uint16(2))
	f.Add(bytes.Repeat([]byte{0xff, 0x0f}, 129), uint8(15), uint8(1), uint16(129))
	f.Add(bytes.Repeat([]byte{0x5a}, 2*4097), uint8(8), uint8(7), uint16(4096))
	f.Fuzz(func(t *testing.T, data []byte, dm, sm uint8, shift uint16) {
		n := len(data) / 2
		checkXORKernels(t, data[:n], data[n:2*n], int(dm%16), int(sm%16))
		checkXORAliasContract(t, data[:2*n], n, int(shift)%(n+1))
	})
}

func TestGfMulMatchesShiftAddReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := gfMul(byte(a), byte(b)), naiveGfMul(byte(a), byte(b)); got != want {
				t.Fatalf("gfMul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestGfTablesMatchLoopReference pins every table-driven scalar op to the
// loop-based log/exp forms (the pre-table implementation, kept in gf.go as
// the reference) and to the shift-and-add naive multiplier, over the full
// operand range.
func TestGfTablesMatchLoopReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			aa, bb := byte(a), byte(b)
			if got, ref := gfMul(aa, bb), gfMulLogExp(aa, bb); got != ref {
				t.Fatalf("gfMul(%d,%d) = %d, log/exp reference %d", a, b, got, ref)
			}
			if got, naive := gfMul(aa, bb), naiveGfMul(aa, bb); got != naive {
				t.Fatalf("gfMul(%d,%d) = %d, shift-add reference %d", a, b, got, naive)
			}
		}
	}
	for a := 1; a < 256; a++ {
		inv := gfInv(byte(a))
		if ref := gfDivLogExp(1, byte(a)); inv != ref {
			t.Fatalf("gfInv(%d) = %d, log/exp reference %d", a, inv, ref)
		}
		if p := gfMul(byte(a), inv); p != 1 {
			t.Fatalf("a * gfInv(a) = %d for a=%d", p, a)
		}
	}
}

// TestMulSliceIntoMatchesLoopReference sweeps every coefficient over the
// awkward word-loop sizes, comparing the row-table kernel against both the
// loop-based log/exp reference and a scalar naive fold.
func TestMulSliceIntoMatchesLoopReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for c := 0; c < 256; c++ {
		n := awkwardSizes[c%len(awkwardSizes)]
		dst := randBytes(rng, n)
		src := randBytes(rng, n)
		// Plant zero bytes so the reference's zero-skip path is exercised.
		for i := 0; i < n; i += 5 {
			src[i] = 0
		}
		ref := append([]byte(nil), dst...)
		gfMulSliceLogExp(ref, src, byte(c))
		naive := append([]byte(nil), dst...)
		for i := range naive {
			naive[i] ^= naiveGfMul(byte(c), src[i])
		}
		if err := MulSliceInto(dst, src, byte(c)); err != nil {
			t.Fatalf("c=%d n=%d: %v", c, n, err)
		}
		if !bytes.Equal(dst, ref) {
			t.Fatalf("c=%d n=%d: table kernel diverges from log/exp reference", c, n)
		}
		if !bytes.Equal(dst, naive) {
			t.Fatalf("c=%d n=%d: table kernel diverges from naive fold", c, n)
		}
	}
}

func TestMulSliceIntoGuards(t *testing.T) {
	back := make([]byte, 64)
	if err := MulSliceInto(back[:16], back[:17][1:], 3); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := MulSliceInto(back[0:32], back[8:40], 3); err == nil {
		t.Fatal("partial overlap accepted")
	}
	// The exact same slice is fine for c==1 (zeroes dst, like XORInto)...
	same := randBytes(rand.New(rand.NewSource(9)), 24)
	if err := MulSliceInto(same, same, 1); err != nil {
		t.Fatalf("exact alias under c=1 rejected: %v", err)
	}
	for i, v := range same {
		if v != 0 {
			t.Fatalf("exact alias under c=1 did not zero byte %d: %#x", i, v)
		}
	}
	// ...and for c==0 (no-op), but not for a general coefficient, where the
	// kernel would read bytes it already rewrote.
	if err := MulSliceInto(back[:16], back[:16], 0); err != nil {
		t.Fatalf("exact alias under c=0 rejected: %v", err)
	}
	if err := MulSliceInto(back[:16], back[:16], 7); err == nil {
		t.Fatal("exact alias under general coefficient accepted")
	}
	// Disjoint subslices of one array are fine.
	if err := MulSliceInto(back[0:16], back[16:32], 7); err != nil {
		t.Fatalf("disjoint subslices rejected: %v", err)
	}
}

// TestRSUpdateParityGuards pins the keeper fold to MulSliceInto's guards on
// both rows of an RS(3,2) group (row 0 all ones, so XOR; row 1 a general
// coefficient): a delta that partially overlaps, or is, the parity bytes it
// folds into must return ErrOverlap and leave them as they were, and
// disjoint sub-slices of one backing array must still fold.
func TestRSUpdateParityGuards(t *testing.T) {
	rs, err := NewRS(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	for p := 0; p < 2; p++ {
		c := rs.Coef(p, 1)
		back := randBytes(rng, 192)
		orig := append([]byte(nil), back...)
		for name, bad := range map[string][2][]byte{
			"delta after parity":  {back[0:64], back[8:72]},
			"delta before parity": {back[64:128], back[40:104]},
			"exact alias":         {back[0:64], back[0:48]},
		} {
			if err := rs.UpdateParity(bad[0], p, 1, bad[1]); !errors.Is(err, ErrOverlap) {
				t.Errorf("row %d (coefficient %d), %s: err %v, want ErrOverlap", p, c, name, err)
			}
			if !bytes.Equal(back, orig) {
				t.Fatalf("row %d, %s: refused fold changed the buffer", p, name)
			}
		}
		want := append([]byte(nil), back[0:64]...)
		for i := range 48 {
			want[i] ^= naiveGfMul(c, back[128+i])
		}
		if err := rs.UpdateParity(back[0:64], p, 1, back[128:176]); err != nil {
			t.Fatalf("row %d: disjoint sub-slices rejected: %v", p, err)
		}
		if !bytes.Equal(back[0:64], want) || !bytes.Equal(back[64:], orig[64:]) {
			t.Fatalf("row %d: disjoint fold diverges from the naive fold", p)
		}
	}
}

// checkGfKernels folds c*b into a copy of a through MulSliceInto twice — on
// the vector path (when the host has one) and with the table walk forced —
// with dst and src placed dm and sm bytes past a 32-byte boundary, and holds
// both to the log/exp reference, src to unchanged and the canary bytes on
// either side of both operands to intact. It is the body of both the sweep
// and the fuzz target.
func checkGfKernels(t *testing.T, a, b []byte, c byte, dm, sm int) {
	t.Helper()
	n := len(a)
	want := append([]byte(nil), a...)
	gfMulSliceLogExp(want, b, c)
	dFrame, dOff := misaligned(n, dm)
	sFrame, sOff := misaligned(n, sm)
	dst, src := dFrame[dOff:dOff+n], sFrame[sOff:sOff+n]
	vector := gfVector
	defer func() { gfVector = vector }()
	for _, path := range []struct {
		name string
		on   bool
	}{{"vector", vector}, {"table walk", false}} {
		gfVector = path.on
		copy(dst, a)
		copy(src, b)
		if err := MulSliceInto(dst, src, c); err != nil {
			t.Fatalf("%s c=%d n=%d dst+%d src+%d: %v", path.name, c, n, dm, sm, err)
		}
		if !bytes.Equal(dst, want) || !bytes.Equal(src, b) ||
			!frameIntact(dFrame, dOff, n) || !frameIntact(sFrame, sOff, n) {
			t.Fatalf("%s c=%d n=%d dst+%d src+%d diverges from the log/exp reference", path.name, c, n, dm, sm)
		}
	}
}

// TestGfVectorKernelMatchesTableWalk is the seam test for the AVX2 kernel:
// every coefficient over lengths that straddle its 32- and 64-byte steps,
// with both operands misaligned independently, against the forced table
// walk, the log/exp reference and the shift-add naive fold.
func TestGfVectorKernelMatchesTableWalk(t *testing.T) {
	if !gfVector {
		t.Log("no vector kernel on this host: both passes run the table walk")
	} else if got := gfMulSliceVec(make([]byte, 100), make([]byte, 100), 7); got != 96 {
		t.Fatalf("vector kernel folded %d of 100 bytes, want 96", got)
	}
	rng := rand.New(rand.NewSource(19))
	lengths := make([]int, 0, 135)
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4095, 4096, 4097, 65536+37)
	for _, n := range lengths {
		a, b := randBytes(rng, n), randBytes(rng, n)
		for c := 0; c < 256; c++ {
			naive := append([]byte(nil), a...)
			for i := range naive {
				naive[i] ^= naiveGfMul(byte(c), b[i])
			}
			ref := append([]byte(nil), a...)
			gfMulSliceLogExp(ref, b, byte(c))
			if !bytes.Equal(ref, naive) {
				t.Fatalf("c=%d n=%d: log/exp reference diverges from the naive fold", c, n)
			}
			checkGfKernels(t, a, b, byte(c), rng.Intn(32), rng.Intn(32))
		}
	}
}

// FuzzGfSliceKernels cross-checks both slice-kernel paths against the
// loop-based reference on fuzz-chosen data, coefficient and operand offsets
// (off%32 for dst, off/32%32 for src).
func FuzzGfSliceKernels(f *testing.F) {
	f.Add([]byte{0, 1, 2, 255, 0, 128}, byte(3), uint16(0))
	f.Add([]byte{}, byte(0), uint16(0))
	f.Add(bytes.Repeat([]byte{0xff}, 129), byte(1), uint16(0))
	f.Add(bytes.Repeat([]byte{0x9c, 0x01}, 2049), byte(0x57), uint16(31+17*32))
	f.Fuzz(func(t *testing.T, src []byte, c byte, off uint16) {
		dst := make([]byte, len(src))
		for i := range dst {
			dst[i] = byte(i * 31)
		}
		checkGfKernels(t, dst, src, c, int(off%32), int(off/32%32))
	})
}

// naiveRSEncode computes parity row p as sum_j Coef(p,j) * data[j] using the
// scalar reference multiplier — no slice kernels, no tables.
func naiveRSEncode(r *RS, data [][]byte) [][]byte {
	n := len(data[0])
	par := make([][]byte, r.m)
	for p := range par {
		par[p] = make([]byte, n)
		for j, d := range data {
			c := r.Coef(p, j)
			for i := 0; i < n; i++ {
				par[p][i] ^= naiveGfMul(c, d[i])
			}
		}
	}
	return par
}

func TestRSEncodeMatchesNaiveMatrixMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(8)
		m := 1 + rng.Intn(4)
		n := awkwardSizes[rng.Intn(len(awkwardSizes))]
		if n == 0 {
			n = 1
		}
		rs, err := NewRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		data := make([][]byte, k)
		for j := range data {
			data[j] = randBytes(rng, n)
		}
		got, err := rs.Encode(data)
		if err != nil {
			t.Fatalf("k=%d m=%d n=%d: %v", k, m, n, err)
		}
		want := naiveRSEncode(rs, data)
		for p := range want {
			if !bytes.Equal(got[p], want[p]) {
				t.Fatalf("k=%d m=%d n=%d: parity row %d diverges from naive encode", k, m, n, p)
			}
		}
	}
}

func TestRSEncodeEraseReconstructRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(8)
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(300)
		rs, err := NewRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		data := make([][]byte, k)
		for j := range data {
			data[j] = randBytes(rng, n)
		}
		par, err := rs.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		// Erase up to m shards (data and/or parity) at random.
		shards := make([][]byte, 0, k+m)
		for _, d := range data {
			shards = append(shards, append([]byte(nil), d...))
		}
		for _, p := range par {
			shards = append(shards, append([]byte(nil), p...))
		}
		erase := rng.Perm(k + m)[:1+rng.Intn(m)]
		for _, idx := range erase {
			shards[idx] = nil
		}
		if err := rs.Reconstruct(shards); err != nil {
			t.Fatalf("k=%d m=%d erased %v: %v", k, m, erase, err)
		}
		for j := range data {
			if !bytes.Equal(shards[j], data[j]) {
				t.Fatalf("k=%d m=%d erased %v: data shard %d not recovered", k, m, erase, j)
			}
		}
		for p := range par {
			if !bytes.Equal(shards[k+p], par[p]) {
				t.Fatalf("k=%d m=%d erased %v: parity shard %d not recovered", k, m, erase, p)
			}
		}
	}
}

// TestRSReconstructFromNaiveEncode crosses the implementations: parity is
// produced by the naive scalar encoder, shards are erased on random
// patterns, and the table-driven Reconstruct must recover exactly what the
// naive encode implies — encode and decode agree across kernels.
func TestRSReconstructFromNaiveEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(8)
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(300)
		rs, err := NewRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		data := make([][]byte, k)
		for j := range data {
			data[j] = randBytes(rng, n)
		}
		par := naiveRSEncode(rs, data)
		shards := make([][]byte, 0, k+m)
		for _, d := range data {
			shards = append(shards, append([]byte(nil), d...))
		}
		for _, p := range par {
			shards = append(shards, append([]byte(nil), p...))
		}
		erase := rng.Perm(k + m)[:1+rng.Intn(m)]
		for _, idx := range erase {
			shards[idx] = nil
		}
		if err := rs.Reconstruct(shards); err != nil {
			t.Fatalf("k=%d m=%d erased %v: %v", k, m, erase, err)
		}
		for j := range data {
			if !bytes.Equal(shards[j], data[j]) {
				t.Fatalf("k=%d m=%d erased %v: data shard %d diverges from naive encode", k, m, erase, j)
			}
		}
		for p := range par {
			if !bytes.Equal(shards[k+p], par[p]) {
				t.Fatalf("k=%d m=%d erased %v: parity shard %d diverges from naive encode", k, m, erase, p)
			}
		}
	}
}

// subsets calls fn with every size-element subset of 0..n-1, ascending.
func subsets(n, size int, fn func([]int)) {
	var pick func(from int, cur []int)
	pick = func(from int, cur []int) {
		if len(cur) == size {
			fn(append([]int(nil), cur...))
			return
		}
		for i := from; i < n; i++ {
			pick(i+1, append(cur, i))
		}
	}
	pick(0, nil)
}

// TestRSDecodeRowMatchesReconstruct pins the streaming recovery's one-row
// decode to the whole-group solver: for every erasure pattern, every choice
// of k shards among the ones left and every erased shard (data or parity),
// folding DecodeRow's coefficients over the chosen shards must yield exactly
// the block Reconstruct fills in.
func TestRSDecodeRowMatchesReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, km := range [][2]int{{3, 1}, {3, 2}, {4, 3}, {2, 2}} {
		k, m := km[0], km[1]
		rs, err := NewRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		const n = 67
		full := make([][]byte, k)
		for j := range full {
			full[j] = randBytes(rng, n)
		}
		par, err := rs.Encode(full)
		if err != nil {
			t.Fatal(err)
		}
		full = append(full, par...)
		for lost := 1; lost <= m; lost++ {
			subsets(k+m, lost, func(erased []int) {
				shards := make([][]byte, k+m)
				var alive []int
				for i := range shards {
					shards[i] = full[i]
				}
				for _, e := range erased {
					shards[e] = nil
				}
				for i, s := range shards {
					if s != nil {
						alive = append(alive, i)
					}
				}
				if err := rs.Reconstruct(shards); err != nil {
					t.Fatalf("RS(%d,%d) erased %v: %v", k, m, erased, err)
				}
				subsets(len(alive), k, func(pick []int) {
					present := make([]int, k)
					for i, p := range pick {
						present[i] = alive[p]
					}
					for _, target := range erased {
						row, err := rs.DecodeRow(target, present)
						if err != nil {
							t.Fatalf("RS(%d,%d) erased %v, row %d from %v: %v", k, m, erased, target, present, err)
						}
						got := make([]byte, n)
						for i, idx := range present {
							if err := MulSliceInto(got, full[idx], row[i]); err != nil {
								t.Fatal(err)
							}
						}
						if !bytes.Equal(got, shards[target]) {
							t.Fatalf("RS(%d,%d) erased %v: shard %d folded from %v (row %v) diverges from Reconstruct",
								k, m, erased, target, present, row)
						}
					}
				})
			})
		}
	}
}

// TestRSDecodeRowShapes pins the two rows the runtime leans on — a parity
// block over the k data shards is its encoding row, and a lone lost data
// shard over the other data shards plus parity 0 is all ones (plain XOR) —
// and the malformed requests that must error instead of yielding a row.
func TestRSDecodeRowShapes(t *testing.T) {
	rs, err := NewRS(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		row, err := rs.DecodeRow(3+p, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range row {
			if c != rs.Coef(p, j) {
				t.Errorf("parity %d over the data shards: row %v, encoding coefficient %d is %d", p, row, j, rs.Coef(p, j))
			}
		}
	}
	row, err := rs.DecodeRow(1, []int{0, 2, 3})
	if err != nil || !bytes.Equal(row, []byte{1, 1, 1}) {
		t.Errorf("lone data loss over data + parity 0: row %v, err %v, want all ones", row, err)
	}
	for name, bad := range map[string]struct {
		target  int
		present []int
	}{
		"too few shards":      {0, []int{1, 2}},
		"too many shards":     {0, []int{1, 2, 3, 4}},
		"shard named twice":   {0, []int{1, 1, 3}},
		"shard out of range":  {0, []int{1, 2, 5}},
		"negative shard":      {0, []int{-1, 2, 3}},
		"target out of range": {5, []int{0, 1, 2}},
	} {
		if row, err := rs.DecodeRow(bad.target, bad.present); err == nil {
			t.Errorf("%s: got row %v, want an error", name, row)
		}
	}
}

// TestRSUpdateParityChunkedFoldEquivalence is the property the chunked data
// path rests on: folding a delta piecewise at offsets (chunk boundaries
// straddling word boundaries) must equal folding it whole, and both must
// equal a fresh encode of the updated data.
func TestRSUpdateParityChunkedFoldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(6)
		m := 1 + rng.Intn(3)
		n := 64 + rng.Intn(1000) // keeper block length
		rs, err := NewRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		data := make([][]byte, k)
		for j := range data {
			data[j] = randBytes(rng, n)
		}
		par, err := rs.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		// One member writes a delta over a random subrange.
		victim := rng.Intn(k)
		off := rng.Intn(n)
		dlen := 1 + rng.Intn(n-off)
		delta := randBytes(rng, dlen) // delta = old XOR new
		newData := append([]byte(nil), data[victim]...)
		naiveXOR(newData[off:off+dlen], delta)

		for p := 0; p < m; p++ {
			whole := append([]byte(nil), par[p]...)
			if err := rs.UpdateParity(whole[off:], p, victim, delta); err != nil {
				t.Fatal(err)
			}
			// Same delta folded as awkward little chunks, out of order.
			chunked := append([]byte(nil), par[p]...)
			type piece struct{ at, ln int }
			var pieces []piece
			for at := 0; at < dlen; {
				ln := min(1+rng.Intn(37), dlen-at)
				pieces = append(pieces, piece{at, ln})
				at += ln
			}
			rng.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })
			for _, pc := range pieces {
				if err := rs.UpdateParity(chunked[off+pc.at:], p, victim, delta[pc.at:pc.at+pc.ln]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(whole, chunked) {
				t.Fatalf("k=%d m=%d row %d: chunked fold diverges from whole fold", k, m, p)
			}
		}
		// Cross-check against a fresh encode of the updated data.
		updated := make([][]byte, k)
		for j := range data {
			updated[j] = data[j]
		}
		updated[victim] = newData
		wantPar := naiveRSEncode(rs, updated)
		for p := 0; p < m; p++ {
			got := append([]byte(nil), par[p]...)
			if err := rs.UpdateParity(got[off:], p, victim, delta); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantPar[p]) {
				t.Fatalf("k=%d m=%d row %d: small-write fold diverges from re-encode", k, m, p)
			}
		}
	}
}

func TestRDPEncodeEraseReconstructRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, p := range []int{3, 5, 7, 11} {
		rdp, err := NewRDP(p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			chunk := 1 + rng.Intn(64)
			n := chunk * (p - 1) // block length must split into p-1 rows
			data := make([][]byte, rdp.DataBlocks())
			for j := range data {
				data[j] = randBytes(rng, n)
			}
			rowPar, diagPar, err := rdp.Encode(data)
			if err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
			// Erase any two of the p+1 columns (double-failure tolerance).
			shards := make([][]byte, rdp.TotalBlocks())
			for j := range data {
				shards[j] = append([]byte(nil), data[j]...)
			}
			shards[p-1] = append([]byte(nil), rowPar...)
			shards[p] = append([]byte(nil), diagPar...)
			a := rng.Intn(p + 1)
			b := rng.Intn(p + 1)
			shards[a] = nil
			shards[b] = nil
			if err := rdp.Reconstruct(shards); err != nil {
				t.Fatalf("p=%d erased (%d,%d): %v", p, a, b, err)
			}
			for j := range data {
				if !bytes.Equal(shards[j], data[j]) {
					t.Fatalf("p=%d erased (%d,%d): data block %d not recovered", p, a, b, j)
				}
			}
			if !bytes.Equal(shards[p-1], rowPar) || !bytes.Equal(shards[p], diagPar) {
				t.Fatalf("p=%d erased (%d,%d): parity not recovered", p, a, b)
			}
		}
	}
}
