package parity

// gfNibTab[c] is coefficient c's split-nibble table for the AVX2 kernel:
// c*x for x = 0..15, then c*(x<<4), so c*b = tab[b&15] ^ tab[16+b>>4].
var gfNibTab [256][32]byte

// gf.go's init, which fills gfMulTab, runs first: files init in name order.
func init() {
	for c := range gfNibTab {
		for x := 0; x < 16; x++ {
			gfNibTab[c][x], gfNibTab[c][16+x] = gfMulTab[c][x], gfMulTab[c][x<<4]
		}
	}
	// AVX2 is CPUID leaf 7 EBX bit 5; it is usable only with OSXSAVE and AVX
	// (leaf 1 ECX bits 27 and 28) and the XMM and YMM state enabled in XCR0.
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	var xcr0 uint32
	if ecx1&(1<<27) != 0 {
		xcr0, _ = xgetbv()
	}
	gfVector = maxLeaf >= 7 && ecx1&(3<<27) == 3<<27 && xcr0&6 == 6 && ebx7&(1<<5) != 0
}

// gfMulSliceVec folds src's longest 32-byte-multiple prefix into dst with the
// AVX2 kernel and returns its length: 0, touching nothing, if gfVector is off.
func gfMulSliceVec(dst, src []byte, c byte) int {
	n := len(src) &^ 31
	if !gfVector || n == 0 {
		return 0
	}
	gfMulSliceAVX2(&gfNibTab[c], dst[:n], src[:n])
	return n
}

//go:noescape
func gfMulSliceAVX2(tab *[32]byte, dst, src []byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
