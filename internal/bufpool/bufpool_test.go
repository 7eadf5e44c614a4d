package bufpool

import "testing"

func TestGetLengthAndClassCapacity(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 512},
		{1, 512},
		{512, 512},
		{513, 1024},
		{64 << 10, 64 << 10},
		{(64 << 10) + 1, 128 << 10},
	}
	for _, c := range cases {
		b := Get(c.n)
		if len(b) != c.n {
			t.Errorf("Get(%d): len %d", c.n, len(b))
		}
		if cap(b) != c.wantCap {
			t.Errorf("Get(%d): cap %d, want %d", c.n, cap(b), c.wantCap)
		}
		Put(b)
	}
}

func TestOversizeIsUnpooled(t *testing.T) {
	before := Snapshot().Oversize
	b := Get((32 << 20) + 1)
	if len(b) != (32<<20)+1 {
		t.Fatalf("len %d", len(b))
	}
	if got := Snapshot().Oversize; got != before+1 {
		t.Errorf("oversize counter %d, want %d", got, before+1)
	}
	Put(b) // must not panic or pool it
}

func TestPutForeignBufferIsDropped(t *testing.T) {
	// A non-power-of-two capacity must not enter any class.
	Put(make([]byte, 0, 777))
	Put(nil)
}

func TestReuseRoundTrip(t *testing.T) {
	b := Get(2048)
	b[0] = 42
	Put(b)
	// The next Get of the same class should (usually) see the same backing
	// array; either way length and class must hold.
	c := Get(2000)
	if len(c) != 2000 || cap(c) != 2048 {
		t.Fatalf("len %d cap %d", len(c), cap(c))
	}
	Put(c)
}
