package wire

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var regenCorpus = flag.Bool("regen-corpus", false, "rewrite the chaos fuzz corpus under testdata/")

const corpusDir = "testdata/fuzz/FuzzDecode"

// chaosCorpus deterministically generates the checked-in seed corpus for
// FuzzDecode: frame bodies mangled the way the chaos transport layer (and a
// hostile network) mangles them — bit flips, truncations, oversized length
// fields, trailing garbage — plus a few valid frames as canonical anchors.
// The generator is the source of truth; TestChaosCorpusCheckedIn fails if
// the files on disk drift from it (rerun with -regen-corpus to refresh).
func chaosCorpus() [][]byte {
	rng := rand.New(rand.NewSource(0xC0DEC))
	bases := [][]byte{
		sample().Encode(),
		(&Message{Type: MsgHello}).Encode(),
		(&Message{Type: MsgPrepare, Epoch: 1 << 40, Group: -3, Arg: 7,
			VM: "vm-03.01", Text: strings.Repeat("t", 300)}).Encode(),
		(&Message{Type: MsgCommit, Epoch: 9, Payload: bytes.Repeat([]byte{0xAB}, 1024)}).Encode(),
	}
	var out [][]byte
	add := func(b []byte) { out = append(out, b) }
	for _, base := range bases {
		add(append([]byte(nil), base...)) // canonical anchor

		// Bit flips: single and burst, anywhere in the body.
		for i := 0; i < 3; i++ {
			m := append([]byte(nil), base...)
			for n := 0; n <= i; n++ {
				m[rng.Intn(len(m))] ^= 1 << uint(rng.Intn(8))
			}
			add(m)
		}
		// Truncations: mid-header, mid-field, one byte short.
		for _, cut := range []int{1, len(base) / 2, len(base) - 1} {
			if cut < len(base) {
				add(append([]byte(nil), base[:cut]...))
			}
		}
		// Length-field inflation: saturate each of the three length fields
		// (vm at offset FixedHeaderLen, then text, then payload) so the
		// declared size runs past the end of the buffer.
		for _, off := range []int{FixedHeaderLen, FixedHeaderLen + 1} {
			if off < len(base) {
				m := append([]byte(nil), base...)
				m[off] = 0xFF
				add(m)
			}
		}
		// Trailing garbage after a well-formed body.
		g := make([]byte, 1+rng.Intn(16))
		rng.Read(g)
		add(append(append([]byte(nil), base...), g...))
	}
	add([]byte{})
	add([]byte{byte(MsgHello)})
	return out
}

func corpusPath(i int) string {
	return filepath.Join(corpusDir, fmt.Sprintf("chaos-%03d", i))
}

// encodeCorpusEntry renders one entry in the `go test fuzz v1` seed format.
func encodeCorpusEntry(b []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n")
}

// decodeCorpusEntry parses a single-[]byte v1 seed file.
func decodeCorpusEntry(data []byte) ([]byte, error) {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		return nil, fmt.Errorf("not a v1 corpus file")
	}
	body := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		return nil, fmt.Errorf("unquote corpus literal: %w", err)
	}
	return []byte(s), nil
}

// TestChaosCorpusCheckedIn pins the checked-in corpus to the generator:
// every generated entry must exist on disk byte-for-byte.
func TestChaosCorpusCheckedIn(t *testing.T) {
	entries := chaosCorpus()
	if *regenCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, e := range entries {
			if err := os.WriteFile(corpusPath(i), encodeCorpusEntry(e), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d corpus entries", len(entries))
		return
	}
	for i, e := range entries {
		got, err := os.ReadFile(corpusPath(i))
		if err != nil {
			t.Fatalf("corpus entry %d missing (run go test -run TestChaosCorpusCheckedIn -regen-corpus): %v", i, err)
		}
		if !bytes.Equal(got, encodeCorpusEntry(e)) {
			t.Errorf("corpus entry %d drifted from generator", i)
		}
	}
}

// corpusFile is one checked-in chaos corpus entry.
type corpusFile struct {
	name  string
	frame []byte
}

// chaosCorpusFiles reads every checked-in chaos corpus file.
func chaosCorpusFiles(tb testing.TB) []corpusFile {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(files) == 0 {
		tb.Fatalf("no corpus files under %s", corpusDir)
	}
	out := make([]corpusFile, 0, len(files))
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		frame, err := decodeCorpusEntry(raw)
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		out = append(out, corpusFile{filepath.Base(path), frame})
	}
	return out
}

// TestDecodeChaosCorpus runs every checked-in corpus file through both entry
// points: Decode must never panic, every rejection must be a typed ErrFrame
// error, and everything accepted must re-encode canonically; ReadFrame over
// the length-prefixed file must agree with Decode (checkReadFrame). (The same
// files also seed FuzzDecode's and FuzzReadFrame's mutation engines under
// `go test -fuzz`.)
func TestDecodeChaosCorpus(t *testing.T) {
	for _, e := range chaosCorpusFiles(t) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Decode or ReadFrame panicked: %v", e.name, r)
				}
			}()
			m, err := Decode(e.frame)
			if err != nil {
				if !errors.Is(err, ErrFrame) {
					t.Errorf("%s: Decode error is not a typed ErrFrame: %v", e.name, err)
				}
			} else if re := m.Encode(); !bytes.Equal(re, e.frame) {
				t.Errorf("%s: accepted non-canonical frame", e.name)
			}
			checkReadFrame(t, e.name, e.frame)
		}()
	}
}
