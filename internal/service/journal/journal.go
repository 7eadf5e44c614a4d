// Package journal is the append-only record log backing the service store.
// The format reuses the internal/wire framing idioms — little-endian, explicit
// lengths, CRC32-IEEE, a hard size bound against corrupt length prefixes — but
// for a durable on-disk log rather than a network frame:
//
//	file   = magic  record*
//	magic  = "DVDCJNL1"                             (8 bytes)
//	record = len uint32 | crc uint32 | payload      (crc over len bytes ++ payload)
//
// The recovery contract is prefix consistency: a scan stops at the first
// framing violation (short frame, oversized length, CRC mismatch) and treats
// everything before it as the valid prefix — a torn tail from a crash mid-write
// is silently dropped, never partially applied. Only a wrong magic is a hard
// error: the file is not a journal, and loading it would be silent corruption.
// Semantic validation of payloads is the caller's job (and is where "fail
// loudly" lives: a CRC-valid record that decodes to garbage must be rejected,
// not skipped).
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// MaxRecord bounds one payload. Anything larger in a length prefix is treated
// as corruption, so a flipped bit can never drive a multi-gigabyte read.
const MaxRecord = 16 << 20

// headerLen and frameLen size the fixed parts of the format.
const (
	headerLen = 8
	frameLen  = 8 // len + crc
)

var magic = []byte("DVDCJNL1")

// ErrNotJournal reports a file whose header is not the journal magic. Unlike
// a torn tail this is never recoverable-by-truncation: the file is something
// else entirely and must not be loaded or overwritten silently.
var ErrNotJournal = errors.New("journal: bad magic (not a journal file)")

// AppendHeader appends the file header to dst.
func AppendHeader(dst []byte) []byte { return append(dst, magic...) }

// AppendRecord appends one framed record to dst.
func AppendRecord(dst, payload []byte) []byte {
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(lenb[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	dst = append(dst, lenb[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return append(dst, payload...)
}

// ScanBytes walks a journal image and returns every intact payload plus the
// byte length of the valid prefix. Payloads alias b. A torn tail (truncated
// frame, oversized length, CRC mismatch) stops the scan without error; a
// header that cannot be the journal magic returns ErrNotJournal. An empty or
// header-only image is a valid journal with zero records.
func ScanBytes(b []byte) (payloads [][]byte, valid int64, err error) {
	if len(b) < headerLen {
		// A short file that is a prefix of the magic is a crash before the
		// header landed; anything else is not a journal.
		if !bytes.HasPrefix(magic, b) {
			return nil, 0, ErrNotJournal
		}
		return nil, 0, nil
	}
	if !bytes.Equal(b[:headerLen], magic) {
		return nil, 0, ErrNotJournal
	}
	off := int64(headerLen)
	for {
		rest := b[off:]
		if len(rest) < frameLen {
			return payloads, off, nil
		}
		n := int64(binary.LittleEndian.Uint32(rest[:4]))
		if n > MaxRecord || frameLen+n > int64(len(rest)) {
			return payloads, off, nil
		}
		want := binary.LittleEndian.Uint32(rest[4:8])
		crc := crc32.ChecksumIEEE(rest[:4])
		crc = crc32.Update(crc, crc32.IEEETable, rest[frameLen:frameLen+n])
		if crc != want {
			return payloads, off, nil
		}
		payloads = append(payloads, rest[frameLen:frameLen+n])
		off += frameLen + n
	}
}

// Options tune a Writer.
type Options struct {
	// OnFsync, if set, is called after every fsync of the log with the fsync's
	// wall-clock duration (metrics hook: count + latency histogram).
	OnFsync func(d time.Duration)
}

// RecoverInfo summarizes what Recover found on disk.
type RecoverInfo struct {
	Records      int   // intact records in the valid prefix
	DroppedBytes int64 // torn tail truncated away
}

// Writer is an append handle on a journal file. All methods are safe for
// concurrent use.
type Writer struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	size    int64
	onFsync func(time.Duration)
	scratch []byte
}

// Recover opens (creating if absent) the journal at path, scans it, truncates
// any torn tail, and returns an append Writer positioned after the valid
// prefix plus the intact payloads in order. Payloads are freshly allocated:
// they do not alias any internal buffer.
func Recover(path string, opts Options) (*Writer, [][]byte, RecoverInfo, error) {
	var info RecoverInfo
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, info, fmt.Errorf("journal: read %s: %w", path, err)
	}
	payloads, valid, err := ScanBytes(b)
	if err != nil {
		return nil, nil, info, fmt.Errorf("journal: %s: %w", path, err)
	}
	info.Records = len(payloads)
	info.DroppedBytes = int64(len(b)) - valid

	w := &Writer{path: path, onFsync: opts.OnFsync}
	if valid < headerLen {
		// Fresh (or torn-before-header) file: rewrite it from scratch.
		f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, info, err
		}
		if _, err = f.Write(magic); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, nil, info, err
		}
		w.f, w.size = f, headerLen
	} else {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, info, err
		}
		if info.DroppedBytes > 0 {
			if err := f.Truncate(valid); err == nil {
				err = f.Sync()
			}
			if err != nil {
				f.Close()
				return nil, nil, info, err
			}
		}
		w.f, w.size = f, valid
	}
	if err := syncDir(path); err != nil {
		w.f.Close()
		return nil, nil, info, err
	}
	// Detach the payloads from the file image before it goes out of scope.
	out := make([][]byte, len(payloads))
	for i, p := range payloads {
		out[i] = append([]byte(nil), p...)
	}
	return w, out, info, nil
}

// Append frames payload, writes it and fsyncs it: an append that returns nil
// is on stable storage.
func (w *Writer) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecord %d", len(payload), MaxRecord)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("journal: writer closed")
	}
	w.scratch = AppendRecord(w.scratch[:0], payload)
	if _, err := w.f.Write(w.scratch); err != nil {
		return err
	}
	w.size += int64(len(w.scratch))
	t0 := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	if w.onFsync != nil {
		w.onFsync(time.Since(t0))
	}
	return nil
}

// Size returns the current file size in bytes (header included).
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Rewrite atomically replaces the journal's contents with the given payloads
// (compaction): a temp file gets header + records + fsync, then renames over
// the log, and the writer continues appending to the new file. A crash at any
// point leaves either the old complete log or the new complete log.
func (w *Writer) Rewrite(payloads ...[]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("journal: writer closed")
	}
	buf := AppendHeader(nil)
	for _, p := range payloads {
		if len(p) > MaxRecord {
			return fmt.Errorf("journal: record of %d bytes exceeds MaxRecord %d", len(p), MaxRecord)
		}
		buf = AppendRecord(buf, p)
	}
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	fsyncWall := time.Since(t0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, w.path)
	}
	if err == nil {
		err = syncDir(w.path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// The old fd still points at the unlinked inode; swap to the new file.
	nf, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f.Close()
	w.f, w.size = nf, int64(len(buf))
	if w.onFsync != nil {
		w.onFsync(fsyncWall)
	}
	return nil
}

// Close closes the file; every append is already synced. Idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// syncDir fsyncs the directory holding path so a freshly created or renamed
// journal survives a crash of the whole machine, not just the process.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
