package parity

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFFieldAxioms(t *testing.T) {
	// Every nonzero element has an inverse; mul is consistent with div.
	for a := 1; a < 256; a++ {
		inv := gfInv(byte(a))
		if got := gfMul(byte(a), inv); got != 1 {
			t.Fatalf("a=%d: a*inv(a) = %d, want 1", a, got)
		}
	}
	// Distributivity spot check over all pairs with a fixed c.
	const c = 0x57
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b += 17 {
			left := gfMul(byte(a)^byte(b), c)
			right := gfMul(byte(a), c) ^ gfMul(byte(b), c)
			if left != right {
				t.Fatalf("distributivity fails at a=%d b=%d", a, b)
			}
		}
	}
}

func TestNewRSValidation(t *testing.T) {
	if _, err := NewRS(0, 1); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewRS(1, 0); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := NewRS(200, 100); err == nil {
		t.Error("k+m > 256 should fail")
	}
	if _, err := NewRS(3, 2); err != nil {
		t.Errorf("NewRS(3,2): %v", err)
	}
}

func TestRSSystematic(t *testing.T) {
	r, err := NewRS(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if r.matrix[i][j] != want {
				t.Fatalf("matrix[%d][%d] = %d, not identity", i, j, r.matrix[i][j])
			}
		}
	}
}

func TestRSRoundTripAllErasurePatterns(t *testing.T) {
	configs := []struct{ k, m int }{{2, 1}, {3, 2}, {4, 2}, {5, 3}, {6, 4}}
	for _, cfg := range configs {
		r, err := NewRS(cfg.k, cfg.m)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(cfg.k*100 + cfg.m)))
		data := make([][]byte, cfg.k)
		for i := range data {
			data[i] = randBlock(rng, 96)
		}
		par, err := r.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		golden := make([][]byte, cfg.k+cfg.m)
		copy(golden, data)
		copy(golden[cfg.k:], par)

		// Erase every subset of size m (exhaustive for these small configs).
		total := cfg.k + cfg.m
		var rec func(start int, chosen []int)
		rec = func(start int, chosen []int) {
			if len(chosen) == cfg.m {
				shards := make([][]byte, total)
				for i := range golden {
					shards[i] = append([]byte(nil), golden[i]...)
				}
				for _, e := range chosen {
					shards[e] = nil
				}
				if err := r.Reconstruct(shards); err != nil {
					t.Fatalf("k=%d m=%d erase=%v: %v", cfg.k, cfg.m, chosen, err)
				}
				for i := range golden {
					if !bytes.Equal(shards[i], golden[i]) {
						t.Fatalf("k=%d m=%d erase=%v: shard %d mismatch", cfg.k, cfg.m, chosen, i)
					}
				}
				return
			}
			for e := start; e < total; e++ {
				rec(e+1, append(chosen, e))
			}
		}
		rec(0, nil)
	}
}

func TestRSTooManyErasures(t *testing.T) {
	r, _ := NewRS(3, 2)
	rng := rand.New(rand.NewSource(7))
	data := [][]byte{randBlock(rng, 8), randBlock(rng, 8), randBlock(rng, 8)}
	par, _ := r.Encode(data)
	shards := [][]byte{nil, nil, nil, par[0], par[1]}
	if err := r.Reconstruct(shards); err == nil {
		t.Error("3 erasures with m=2 should fail")
	}
}

func TestRSMatchesXORForM1(t *testing.T) {
	// With m=1 the single parity block must equal plain XOR parity.
	r, err := NewRS(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	data := make([][]byte, 5)
	for i := range data {
		data[i] = randBlock(rng, 64)
	}
	par, err := r.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := XOR(data...)
	if !bytes.Equal(par[0], want) {
		t.Error("RS(k,1) parity differs from XOR parity")
	}
}

// Property: any m-subset erasure is recoverable for random small (k, m).
func TestQuickRSRandomErasures(t *testing.T) {
	f := func(seed int64, kRaw, mRaw, nRaw uint8) bool {
		k := int(kRaw%6) + 2
		m := int(mRaw%3) + 1
		n := int(nRaw%64) + 1
		r, err := NewRS(k, m)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		data := make([][]byte, k)
		for i := range data {
			data[i] = randBlock(rng, n)
		}
		par, err := r.Encode(data)
		if err != nil {
			return false
		}
		golden := make([][]byte, k+m)
		copy(golden, data)
		copy(golden[k:], par)
		shards := make([][]byte, k+m)
		for i := range golden {
			shards[i] = append([]byte(nil), golden[i]...)
		}
		for e := 0; e < m; e++ {
			shards[rng.Intn(k+m)] = nil
		}
		if err := r.Reconstruct(shards); err != nil {
			return false
		}
		for i := range golden {
			if !bytes.Equal(shards[i], golden[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
