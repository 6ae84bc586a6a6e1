// Package segstore is the repo's one on-disk record layer: a Log of
// CRC-framed records, a Store (sharded first-write-wins keyed index over
// Logs) and WriteFileAtomic. The coordinator's WAL (its only durable
// file) and queue.Cache (kept for the benchmark's storage probe) are
// this frame with a different tag width:
//
//	[tag: TagSize bytes][u32 payload len LE][u32 crc32-IEEE(payload) LE][payload]
//
// optionally preceded by one 8-byte file header (u32 magic LE, u32
// version LE). The CRC covers the payload only. A file is valid up to
// its first short, oversized or CRC-failing frame; everything after is a
// torn tail from a crashed writer and is truncated at open.
package segstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// HeaderSize is the length of the optional magic+version file header.
const HeaderSize = 8

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("segstore: log closed")

// Format fixes a log's framing at open.
type Format struct {
	TagSize    int    // bytes of caller-defined tag leading every frame
	Magic      uint32 // with Version, the 8-byte file header; 0 = headerless
	Version    uint32
	MaxPayload uint32 // larger lengths are rejected on append and end replay
}

func (f Format) header() []byte {
	if f.Magic == 0 {
		return nil
	}
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, f.Magic), f.Version)
}

func (f Format) frameSize() int { return f.TagSize + 8 }

// Frame returns an empty frame with room for an n-byte payload: its
// header's bytes reserved, for the caller to append the payload to and
// hand to Log.AppendFrame.
func (f Format) Frame(n int) []byte { return make([]byte, f.frameSize(), f.frameSize()+n) }

// File is what a Log needs of its backing file (*os.File in production,
// a failing fake in tests).
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// closedFile stands in for a closed Log's file, so no method needs a
// closed check: reads and writes fail, Sync and Close are no-ops.
type closedFile struct{}

func (closedFile) ReadAt([]byte, int64) (int, error)  { return 0, ErrClosed }
func (closedFile) WriteAt([]byte, int64) (int, error) { return 0, ErrClosed }
func (closedFile) Truncate(int64) error               { return ErrClosed }
func (closedFile) Sync() error                        { return nil }
func (closedFile) Close() error                       { return nil }

// Log is one append-only file of framed records, safe for concurrent
// use. Writes go to a tracked offset that advances only when the whole
// frame was written, so a failed append never strands garbage in front
// of later records.
type Log struct {
	fmt Format

	mu   sync.Mutex
	f    File
	size int64 // 0 once closed
}

// Open opens (creating it and its directory if needed) the log at path,
// replays it through visit in append order and truncates any torn tail.
// tag is only valid during the call; payload, at file offset off, is the
// visitor's to keep. A header that does not match the format is an error
// — refusing to overwrite beats silently destroying foreign data.
func Open(path string, format Format, visit func(tag []byte, off int64, payload []byte)) (*Log, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	var l *Log
	info, err := f.Stat()
	if err == nil {
		l, err = NewLog(f, info.Size(), format, visit)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segstore: %s: %w", path, err)
	}
	return l, nil
}

// NewLog is Open over an already open file of the given size: what Open
// does after opening the path, and where a test puts its own File.
func NewLog(f File, size int64, format Format, visit func(tag []byte, off int64, payload []byte)) (*Log, error) {
	hdr := format.header()
	if size < int64(len(hdr)) {
		// Empty file or torn header: (re)write it.
		if _, err := f.WriteAt(hdr, 0); err != nil {
			return nil, fmt.Errorf("write header: %w", err)
		}
		size = int64(len(hdr))
	} else if len(hdr) > 0 {
		got := make([]byte, len(hdr))
		if n, err := f.ReadAt(got, 0); n < len(got) {
			return nil, fmt.Errorf("read header: %w", err)
		}
		if !bytes.Equal(got, hdr) {
			return nil, fmt.Errorf("header % x is not magic+version % x", got, hdr)
		}
	}
	good := replay(f, int64(len(hdr)), size, format, visit)
	if err := f.Truncate(good); err != nil {
		return nil, fmt.Errorf("truncate torn tail: %w", err)
	}
	return &Log{fmt: format, f: f, size: good}, nil
}

// replay is the only frame reader: it scans r from off to size, calls
// visit for every intact record and returns the offset just past the
// last one. It holds one payload of at most min(MaxPayload, size) bytes
// at a time. Reads are judged by byte count: a ReaderAt may pair a full
// read with io.EOF.
func replay(r io.ReaderAt, off, size int64, format Format, visit func(tag []byte, off int64, payload []byte)) int64 {
	le := binary.LittleEndian
	frame := make([]byte, format.frameSize())
	for {
		body := off + int64(len(frame))
		if body > size {
			break // EOF or torn frame
		}
		if k, _ := r.ReadAt(frame, off); k < len(frame) {
			break
		}
		n := le.Uint32(frame[format.TagSize:])
		if n > format.MaxPayload || body+int64(n) > size {
			break // corrupt length or torn payload
		}
		payload := make([]byte, n)
		if k, _ := r.ReadAt(payload, body); k < len(payload) {
			break
		}
		if crc32.ChecksumIEEE(payload) != le.Uint32(frame[format.TagSize+4:]) {
			break // corrupt record: everything after it is suspect too
		}
		visit(frame[:format.TagSize], body, payload)
		off = body + int64(n)
	}
	return off
}

// Append writes one record in a single unsynced write at the end of the
// log and returns the file offset of its payload. On a failed or short
// write the log is truncated back (best effort) and its size unchanged,
// so the next append overwrites whatever the failed one left behind.
func (l *Log) Append(tag, payload []byte) (int64, error) {
	return l.AppendFrame(tag, append(l.fmt.Frame(len(payload)), payload...))
}

// AppendFrame is Append for a record its caller built in place: frame is
// a Format.Frame with the payload appended. The header is filled in
// where the frame reserved it, so the payload is not copied again.
func (l *Log) AppendFrame(tag, frame []byte) (int64, error) {
	if len(tag) != l.fmt.TagSize {
		return 0, fmt.Errorf("segstore: tag of %d bytes, log uses %d", len(tag), l.fmt.TagSize)
	}
	hs := l.fmt.frameSize()
	if len(frame) < hs {
		return 0, fmt.Errorf("segstore: frame of %d bytes has no room for its %d-byte header", len(frame), hs)
	}
	payload := frame[hs:]
	if uint64(len(payload)) > uint64(l.fmt.MaxPayload) {
		return 0, fmt.Errorf("segstore: record of %d bytes exceeds limit %d", len(payload), l.fmt.MaxPayload)
	}
	copy(frame, tag)
	binary.LittleEndian.PutUint32(frame[l.fmt.TagSize:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[l.fmt.TagSize+4:], crc32.ChecksumIEEE(payload))

	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.WriteAt(frame, l.size); err != nil {
		_ = l.f.Truncate(l.size) // best effort; the next append overwrites anyway
		return 0, fmt.Errorf("segstore: append: %w", err)
	}
	off := l.size + int64(hs)
	l.size += int64(len(frame))
	return off, nil
}

// ReadAt fills p from offset off (a payload offset from Open or Append).
func (l *Log) ReadAt(p []byte, off int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n, err := l.f.ReadAt(p, off); n < len(p) {
		return err
	}
	return nil
}

// Size returns the log's byte length, header included (0 once closed).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Sync flushes the log to stable storage (a no-op once closed).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync()
}

// Close syncs and closes the log; closing twice, or a nil Log, is fine.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := errors.Join(l.f.Sync(), l.f.Close())
	l.f, l.size = closedFile{}, 0
	return err
}
