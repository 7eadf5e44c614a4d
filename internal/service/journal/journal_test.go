package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openFresh(t *testing.T, opts Options) (*Writer, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.log")
	w, payloads, info, err := Recover(path, opts)
	if err != nil {
		t.Fatalf("Recover(fresh): %v", err)
	}
	if len(payloads) != 0 || info.Records != 0 || info.DroppedBytes != 0 {
		t.Fatalf("fresh journal not empty: payloads=%d info=%+v", len(payloads), info)
	}
	t.Cleanup(func() { w.Close() })
	return w, path
}

func reopen(t *testing.T, path string) ([][]byte, RecoverInfo) {
	t.Helper()
	w, payloads, info, err := Recover(path, Options{})
	if err != nil {
		t.Fatalf("Recover(%s): %v", path, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close after reopen: %v", err)
	}
	return payloads, info
}

func TestJournalRoundTrip(t *testing.T) {
	w, path := openFresh(t, Options{})
	want := [][]byte{[]byte("one"), []byte(""), []byte("three is a bit longer")}
	for _, p := range want {
		if err := w.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got, want := w.Size(), int64(headerLen+3*frameLen+3+0+21); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	payloads, info := reopen(t, path)
	if info.DroppedBytes != 0 || info.Records != len(want) {
		t.Fatalf("reopen info = %+v", info)
	}
	if len(payloads) != len(want) {
		t.Fatalf("reopened %d records, want %d", len(payloads), len(want))
	}
	for i := range want {
		if !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, payloads[i], want[i])
		}
	}
}

func TestJournalTornTailTruncatedOnRecover(t *testing.T) {
	w, path := openFresh(t, Options{})
	if err := w.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a partial frame: simulate with raw garbage.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x09, 0x00, 0x00} // half a length prefix
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, payloads, info, err := Recover(path, Options{})
	if err != nil {
		t.Fatalf("Recover(torn): %v", err)
	}
	if info.Records != 1 || info.DroppedBytes != int64(len(torn)) {
		t.Fatalf("info = %+v, want 1 record / %d dropped", info, len(torn))
	}
	if len(payloads) != 1 || string(payloads[0]) != "kept" {
		t.Fatalf("payloads = %q", payloads)
	}
	// The tail must be physically gone and appends must land cleanly after it.
	if err := w2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	payloads, info = reopen(t, path)
	if info.DroppedBytes != 0 || len(payloads) != 2 || string(payloads[1]) != "after" {
		t.Fatalf("after truncation+append: payloads=%q info=%+v", payloads, info)
	}
}

func TestJournalCRCMismatchStopsScan(t *testing.T) {
	buf := AppendHeader(nil)
	buf = AppendRecord(buf, []byte("good"))
	mark := len(buf)
	buf = AppendRecord(buf, []byte("evil"))
	buf[mark+frameLen] ^= 0xff // flip a payload byte in the second record
	buf = AppendRecord(buf, []byte("unreachable"))

	payloads, valid, err := ScanBytes(buf)
	if err != nil {
		t.Fatalf("ScanBytes: %v", err)
	}
	if len(payloads) != 1 || string(payloads[0]) != "good" {
		t.Fatalf("payloads = %q, want just %q", payloads, "good")
	}
	if valid != int64(mark) {
		t.Fatalf("valid = %d, want %d", valid, mark)
	}
}

func TestJournalBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	if err := os.WriteFile(path, []byte("NOTAJRNL-some-other-format"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Recover(path, Options{}); !errors.Is(err, ErrNotJournal) {
		t.Fatalf("Recover(bad magic) = %v, want ErrNotJournal", err)
	}
	// The imposter file must not have been touched.
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "NOTAJRNL-some-other-format" {
		t.Fatalf("bad-magic file was modified: %q, %v", b, err)
	}
}

func TestJournalPartialHeaderTreatedAsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	if err := os.WriteFile(path, magic[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	w, payloads, info, err := Recover(path, Options{})
	if err != nil {
		t.Fatalf("Recover(partial header): %v", err)
	}
	if len(payloads) != 0 || info.DroppedBytes != 3 {
		t.Fatalf("payloads=%d info=%+v", len(payloads), info)
	}
	if err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	payloads, _ = reopen(t, path)
	if len(payloads) != 1 || string(payloads[0]) != "first" {
		t.Fatalf("payloads = %q", payloads)
	}
}

// TestJournalFsyncBatching: there is no batching. Every append is fsynced
// before it returns, and Close has nothing left to flush.
func TestJournalFsyncBatching(t *testing.T) {
	fsyncs := 0
	w, _ := openFresh(t, Options{OnFsync: func(time.Duration) { fsyncs++ }})
	for i := 1; i <= 10; i++ {
		if err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if fsyncs != i {
			t.Fatalf("fsyncs after %d appends = %d, want one per append", i, fsyncs)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if fsyncs != 10 {
		t.Fatalf("fsyncs after Close = %d, want 10 (none extra)", fsyncs)
	}
}

func TestJournalRewrite(t *testing.T) {
	w, path := openFresh(t, Options{})
	for i := 0; i < 50; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%02d-padding-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Size()
	if err := w.Rewrite([]byte("snapshot")); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if w.Size() >= before {
		t.Fatalf("Rewrite did not shrink: %d -> %d", before, w.Size())
	}
	// Appends continue on the new file.
	if err := w.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	payloads, info := reopen(t, path)
	if info.DroppedBytes != 0 {
		t.Fatalf("info = %+v", info)
	}
	if len(payloads) != 2 || string(payloads[0]) != "snapshot" || string(payloads[1]) != "tail" {
		t.Fatalf("payloads = %q", payloads)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("compaction temp file left behind: %v", err)
	}
}

func TestJournalMaxRecordEnforced(t *testing.T) {
	w, _ := openFresh(t, Options{})
	if err := w.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("Append accepted an oversized record")
	}
	// An oversized length prefix in the bytes themselves is a torn tail.
	buf := AppendHeader(nil)
	buf = AppendRecord(buf, []byte("ok"))
	cut := len(buf)
	buf = append(buf, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	payloads, valid, err := ScanBytes(buf)
	if err != nil || len(payloads) != 1 || valid != int64(cut) {
		t.Fatalf("oversized length: payloads=%d valid=%d err=%v", len(payloads), valid, err)
	}
}

func TestJournalScanEveryPrefix(t *testing.T) {
	buf := AppendHeader(nil)
	var ends []int
	for i := 0; i < 5; i++ {
		buf = AppendRecord(buf, bytes.Repeat([]byte{byte('a' + i)}, i*7+1))
		ends = append(ends, len(buf))
	}
	for cut := 0; cut <= len(buf); cut++ {
		payloads, valid, err := ScanBytes(buf[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantRecords := 0
		for _, e := range ends {
			if e <= cut {
				wantRecords++
			}
		}
		if len(payloads) != wantRecords {
			t.Fatalf("cut %d: %d records, want %d", cut, len(payloads), wantRecords)
		}
		wantValid := int64(0)
		if cut >= headerLen {
			wantValid = headerLen
			if wantRecords > 0 {
				wantValid = int64(ends[wantRecords-1])
			}
		}
		if valid != wantValid {
			t.Fatalf("cut %d: valid = %d, want %d", cut, valid, wantValid)
		}
	}
}
