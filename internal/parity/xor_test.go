package parity

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBlock(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestXORIntoBasic(t *testing.T) {
	dst := []byte{0x00, 0xff, 0xaa, 0x55}
	src := []byte{0xff, 0xff, 0x0f, 0xf0}
	if err := XORInto(dst, src); err != nil {
		t.Fatalf("XORInto: %v", err)
	}
	want := []byte{0xff, 0x00, 0xa5, 0xa5}
	if !bytes.Equal(dst, want) {
		t.Errorf("XORInto = %x, want %x", dst, want)
	}
}

func TestXORIntoLengthMismatch(t *testing.T) {
	if err := XORInto(make([]byte, 3), make([]byte, 4)); err == nil {
		t.Fatal("expected length-mismatch error, got nil")
	}
}

func TestXORIntoUnalignedTail(t *testing.T) {
	// Lengths around the 8-byte word boundary must all be handled.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65} {
		a := randBlock(rng, n)
		b := randBlock(rng, n)
		got := append([]byte(nil), a...)
		if err := XORInto(got, b); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if got[i] != a[i]^b[i] {
				t.Fatalf("n=%d: byte %d = %x, want %x", n, i, got[i], a[i]^b[i])
			}
		}
	}
}

func TestXORZeroBlocks(t *testing.T) {
	if _, err := XOR(); err == nil {
		t.Fatal("XOR() of zero blocks should error")
	}
}

func TestXORSingleBlockIsCopy(t *testing.T) {
	a := []byte{1, 2, 3}
	out, err := XOR(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, a) {
		t.Errorf("XOR(a) = %v, want %v", out, a)
	}
	out[0] = 99
	if a[0] == 99 {
		t.Error("XOR must not alias its input")
	}
}

func TestReconstructOneRecoversAnyMember(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const k, n = 5, 1024
	data := make([][]byte, k)
	for i := range data {
		data[i] = randBlock(rng, n)
	}
	par, err := Parity(data...)
	if err != nil {
		t.Fatal(err)
	}
	for lost := 0; lost < k; lost++ {
		survivors := [][]byte{par}
		for i, d := range data {
			if i != lost {
				survivors = append(survivors, d)
			}
		}
		got, err := ReconstructOne(survivors...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[lost]) {
			t.Errorf("lost=%d: reconstruction mismatch", lost)
		}
	}
}

// Property: XOR is self-inverse — a ^ b ^ b == a for random blocks.
func TestQuickXORSelfInverse(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		got := append([]byte(nil), a...)
		if err := XORInto(got, b); err != nil {
			return false
		}
		if err := XORInto(got, b); err != nil {
			return false
		}
		return bytes.Equal(got, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: parity of k random blocks always reconstructs any erased member.
func TestQuickParityReconstruction(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		k := int(kRaw%7) + 2
		n := int(nRaw) + 1
		rng := rand.New(rand.NewSource(seed))
		data := make([][]byte, k)
		for i := range data {
			data[i] = randBlock(rng, n)
		}
		par, err := Parity(data...)
		if err != nil {
			return false
		}
		lost := rng.Intn(k)
		survivors := [][]byte{par}
		for i, d := range data {
			if i != lost {
				survivors = append(survivors, d)
			}
		}
		got, err := ReconstructOne(survivors...)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data[lost])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
