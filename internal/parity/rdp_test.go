package parity

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func rdpFixture(t *testing.T, p, chunk int, seed int64) (*RDP, [][]byte) {
	t.Helper()
	c, err := NewRDP(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([][]byte, p-1)
	for i := range data {
		data[i] = randBlock(rng, (p-1)*chunk)
	}
	return c, data
}

func encodeShards(t *testing.T, c *RDP, data [][]byte) [][]byte {
	t.Helper()
	row, diag, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, c.TotalBlocks())
	for i, d := range data {
		shards[i] = append([]byte(nil), d...)
	}
	shards[c.p-1] = row
	shards[c.p] = diag
	return shards
}

func TestNewRDPValidation(t *testing.T) {
	for _, p := range []int{0, 1, 2, 4, 6, 8, 9, 10} {
		if _, err := NewRDP(p); err == nil {
			t.Errorf("NewRDP(%d) should fail", p)
		}
	}
	for _, p := range []int{3, 5, 7, 11, 13, 17} {
		if _, err := NewRDP(p); err != nil {
			t.Errorf("NewRDP(%d): %v", p, err)
		}
	}
}

func TestRDPEncodeBlockLengthValidation(t *testing.T) {
	c, _ := NewRDP(5)
	bad := make([][]byte, 4)
	for i := range bad {
		bad[i] = make([]byte, 7) // not a multiple of p-1 = 4
	}
	if _, _, err := c.Encode(bad); err == nil {
		t.Error("Encode with non-multiple block length should fail")
	}
	uneven := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8), make([]byte, 12)}
	if _, _, err := c.Encode(uneven); err == nil {
		t.Error("Encode with uneven block lengths should fail")
	}
}

func TestRDPAllSingleErasures(t *testing.T) {
	for _, p := range []int{3, 5, 7, 11} {
		c, data := rdpFixture(t, p, 16, int64(p))
		golden := encodeShards(t, c, data)
		for lost := 0; lost < c.TotalBlocks(); lost++ {
			shards := make([][]byte, len(golden))
			for i := range golden {
				shards[i] = append([]byte(nil), golden[i]...)
			}
			shards[lost] = nil
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("p=%d lost=%d: %v", p, lost, err)
			}
			for i := range golden {
				if !bytes.Equal(shards[i], golden[i]) {
					t.Fatalf("p=%d lost=%d: shard %d mismatch", p, lost, i)
				}
			}
		}
	}
}

func TestRDPAllDoubleErasures(t *testing.T) {
	for _, p := range []int{3, 5, 7, 11, 13} {
		c, data := rdpFixture(t, p, 12, int64(100+p))
		golden := encodeShards(t, c, data)
		for a := 0; a < c.TotalBlocks(); a++ {
			for b := a + 1; b < c.TotalBlocks(); b++ {
				shards := make([][]byte, len(golden))
				for i := range golden {
					shards[i] = append([]byte(nil), golden[i]...)
				}
				shards[a], shards[b] = nil, nil
				if err := c.Reconstruct(shards); err != nil {
					t.Fatalf("p=%d lost=(%d,%d): %v", p, a, b, err)
				}
				for i := range golden {
					if !bytes.Equal(shards[i], golden[i]) {
						t.Fatalf("p=%d lost=(%d,%d): shard %d mismatch", p, a, b, i)
					}
				}
			}
		}
	}
}

func TestRDPTripleErasureRejected(t *testing.T) {
	c, data := rdpFixture(t, 5, 8, 9)
	shards := encodeShards(t, c, data)
	shards[0], shards[1], shards[2] = nil, nil, nil
	if err := c.Reconstruct(shards); err == nil {
		t.Error("triple erasure should be rejected")
	}
}

func TestRDPNoErasureIsNoop(t *testing.T) {
	c, data := rdpFixture(t, 5, 8, 10)
	shards := encodeShards(t, c, data)
	want := make([][]byte, len(shards))
	for i := range shards {
		want[i] = append([]byte(nil), shards[i]...)
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], want[i]) {
			t.Errorf("shard %d changed by no-op reconstruct", i)
		}
	}
}

// Property: random data, random double erasure, always recovered exactly.
func TestQuickRDPDoubleErasure(t *testing.T) {
	primes := []int{3, 5, 7, 11}
	f := func(seed int64, pIdx, chunkRaw uint8) bool {
		p := primes[int(pIdx)%len(primes)]
		chunk := int(chunkRaw%32) + 1
		c, err := NewRDP(p)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		data := make([][]byte, p-1)
		for i := range data {
			data[i] = randBlock(rng, (p-1)*chunk)
		}
		row, diag, err := c.Encode(data)
		if err != nil {
			return false
		}
		golden := make([][]byte, p+1)
		copy(golden, data)
		golden[p-1], golden[p] = row, diag
		a := rng.Intn(p + 1)
		b := rng.Intn(p + 1)
		shards := make([][]byte, p+1)
		for i := range golden {
			shards[i] = append([]byte(nil), golden[i]...)
		}
		shards[a], shards[b] = nil, nil
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		for i := range golden {
			if !bytes.Equal(shards[i], golden[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
