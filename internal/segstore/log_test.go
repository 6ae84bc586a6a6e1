package segstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

var testFormats = []Format{
	{TagSize: 1, Magic: 0x4851574c, Version: 1, MaxPayload: 1 << 10},
	{TagSize: 16, MaxPayload: 1 << 10},
	{TagSize: 24, MaxPayload: 1 << 10},
}

// frame hand-builds one record from the documented layout, independent
// of Log.Append.
func frame(tag, payload []byte) []byte {
	b := append([]byte(nil), tag...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

func header(f Format) []byte {
	if f.Magic == 0 {
		return nil
	}
	b := binary.LittleEndian.AppendUint32(nil, f.Magic)
	return binary.LittleEndian.AppendUint32(b, f.Version)
}

type rec struct {
	tag, payload []byte
	off          int64
}

func skip([]byte, int64, []byte) {}

func collect(recs *[]rec) func([]byte, int64, []byte) {
	return func(tag []byte, off int64, payload []byte) {
		*recs = append(*recs, rec{append([]byte(nil), tag...), payload, off})
	}
}

// memFile is an in-memory File whose next write can be made to fail
// half-way, like a disk filling up mid-frame.
type memFile struct {
	data      []byte
	failWrite bool // next WriteAt stores half its bytes, then errors
	failTrunc bool // Truncate errors without truncating
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(m.data).ReadAt(p, off)
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	n := len(p)
	if m.failWrite {
		n /= 2
	}
	if need := int(off) + n; need > len(m.data) {
		m.data = append(m.data, make([]byte, need-len(m.data))...)
	}
	copy(m.data[off:], p[:n])
	if m.failWrite {
		m.failWrite = false
		return n, errors.New("no space left on device")
	}
	return n, nil
}

func (m *memFile) Truncate(size int64) error {
	if m.failTrunc {
		return errors.New("truncate: input/output error")
	}
	m.data = m.data[:size]
	return nil
}

func (m *memFile) Sync() error  { return nil }
func (m *memFile) Close() error { return nil }

// A failed append must not poison later records: the next append lands
// where the failed one started, and a reopen replays it — whether or not
// the clean-up truncate worked.
func TestFailedAppendIsOverwritten(t *testing.T) {
	for _, format := range testFormats {
		for _, failTrunc := range []bool{false, true} {
			f := &memFile{}
			l, err := NewLog(f, 0, format, skip)
			if err != nil {
				t.Fatal(err)
			}
			tag := bytes.Repeat([]byte{7}, format.TagSize)
			if _, err := l.Append(tag, []byte("first")); err != nil {
				t.Fatal(err)
			}
			size := l.Size()

			f.failWrite, f.failTrunc = true, failTrunc
			if _, err := l.Append(tag, bytes.Repeat([]byte("torn"), 50)); err == nil {
				t.Fatal("half-written append reported success")
			}
			if l.Size() != size {
				t.Fatalf("failed append moved the log size %d -> %d", size, l.Size())
			}
			off, err := l.Append(tag, []byte("after"))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 5)
			if err := l.ReadAt(got, off); err != nil || string(got) != "after" {
				t.Fatalf("ReadAt = %q, %v", got, err)
			}

			f.failTrunc = false
			var recs []rec
			l2, err := NewLog(f, int64(len(f.data)), format, collect(&recs))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 || string(recs[0].payload) != "first" || string(recs[1].payload) != "after" {
				t.Fatalf("tag %d, failTrunc %v: replayed %d records %q", format.TagSize, failTrunc, len(recs), recs)
			}
			if l2.Size() != l.Size() || int64(len(f.data)) != l.Size() {
				t.Fatalf("reopen left %d bytes (size %d), want %d", len(f.data), l2.Size(), l.Size())
			}
		}
	}
}

// Open/Append/Close against a real file, for every format: the
// bytes on disk are exactly header + hand-built frames.
func TestLogOnDisk(t *testing.T) {
	for _, format := range testFormats {
		path := filepath.Join(t.TempDir(), "sub", "x.log")
		l, err := Open(path, format, skip)
		if err != nil {
			t.Fatal(err)
		}
		tagA := bytes.Repeat([]byte{1}, format.TagSize)
		tagB := bytes.Repeat([]byte{2}, format.TagSize)
		l.Append(tagA, []byte("alpha"))
		l.Append(tagB, nil)
		if _, err := l.Append(tagA, make([]byte, format.MaxPayload+1)); err == nil {
			t.Fatal("oversized payload accepted")
		}
		if _, err := l.Append(tagA[:format.TagSize-1], nil); err == nil {
			t.Fatal("short tag accepted")
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(tagA, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("append after close: %v", err)
		}
		if l.Size() != 0 || l.Sync() != nil || l.Close() != nil {
			t.Fatal("closed log misbehaves")
		}

		want := append(header(format), frame(tagA, []byte("alpha"))...)
		want = append(want, frame(tagB, nil)...)
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("tag %d: file is\n%x\nwant\n%x", format.TagSize, got, want)
		}

		var recs []rec
		l, err = Open(path, format, collect(&recs))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || !bytes.Equal(recs[0].tag, tagA) || string(recs[0].payload) != "alpha" ||
			!bytes.Equal(recs[1].tag, tagB) || len(recs[1].payload) != 0 {
			t.Fatalf("tag %d: replayed %q", format.TagSize, recs)
		}
		if l.Size() != int64(len(want)) {
			t.Fatalf("Size = %d, want %d", l.Size(), len(want))
		}
		l.Append(tagB, []byte("post-reopen"))
		l.Close()
		want = append(want, frame(tagB, []byte("post-reopen"))...)
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("tag %d after reopen: file is %x, want %x", format.TagSize, got, want)
		}
	}
}

func TestOpenRejectsForeignHeader(t *testing.T) {
	format := testFormats[0]
	path := filepath.Join(t.TempDir(), "x.log")
	os.WriteFile(path, []byte("definitely not a log file"), 0o644)
	if _, err := Open(path, format, skip); err == nil {
		t.Fatal("opened a file with a foreign magic")
	}
	wrongVersion := format
	wrongVersion.Version = 2
	os.WriteFile(path, header(wrongVersion), 0o644)
	if _, err := Open(path, format, skip); err == nil {
		t.Fatal("opened a file with an unsupported version")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, header(wrongVersion)) {
		t.Fatal("rejected file was modified")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, content := range []string{"one", "two-longer"} {
		if err := WriteFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != content {
			t.Fatalf("read back %q, want %q", got, content)
		}
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	// Rename onto a directory fails after the temp file exists: it must
	// be cleaned up.
	os.Mkdir(filepath.Join(dir, "d"), 0o755)
	if err := WriteFileAtomic(filepath.Join(dir, "d"), []byte("x")); err == nil {
		t.Fatal("rename over a directory succeeded")
	}
	names, _ := os.ReadDir(dir)
	if len(names) != 2 {
		t.Fatalf("temp files left behind: %v", names)
	}
}

// FuzzLogReplay opens arbitrary bytes as a log under every format in
// use, which runs the one replay function over them.
func FuzzLogReplay(f *testing.F) {
	for sel, format := range testFormats {
		tag := bytes.Repeat([]byte{9}, format.TagSize)
		good := append(header(format), frame(tag, []byte("intact"))...)
		good = append(good, frame(tag, []byte("second"))...)
		flipped := append([]byte(nil), good...)
		flipped[len(flipped)-1] ^= 0xff
		oversized := append(append([]byte(nil), good...), tag...)
		oversized = binary.LittleEndian.AppendUint32(oversized, 0xffffffff)
		oversized = append(oversized, 0, 0, 0, 0, 'x')
		for _, seed := range [][]byte{good, good[:len(good)-3], flipped, oversized, nil} {
			f.Add(seed, uint8(sel), format.Magic != 0)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, sel uint8, withHeader bool) {
		format := Format{TagSize: testFormats[sel%3].TagSize, MaxPayload: 1 << 10}
		if withHeader {
			format.Magic, format.Version = 0x4851574c, 1
		}
		hdr := header(format)
		file := &memFile{data: append([]byte(nil), data...)}
		var recs []rec
		l, err := NewLog(file, int64(len(data)), format, collect(&recs))
		if err != nil {
			if len(data) < len(hdr) || bytes.HasPrefix(data, hdr) {
				t.Fatalf("open failed on an acceptable header: %v", err)
			}
			return
		}
		// The good prefix is a prefix of the input (behind a header that
		// may have been written fresh), and the file was cut to it.
		good := l.Size()
		if good != int64(len(file.data)) || good > int64(max(len(data), len(hdr))) ||
			!bytes.Equal(file.data[len(hdr):], data[min(len(hdr), len(data)):][:good-int64(len(hdr))]) {
			t.Fatalf("good prefix of %d bytes is not a prefix of the %d-byte input", good, len(data))
		}
		end := int64(len(hdr))
		for _, r := range recs {
			if uint32(len(r.payload)) > format.MaxPayload {
				t.Fatalf("payload of %d bytes exceeds bound", len(r.payload))
			}
			if want := frame(r.tag, r.payload); r.off != end+int64(format.frameSize()) ||
				!bytes.Equal(file.data[end:end+int64(len(want))], want) {
				t.Fatalf("record at %d does not match its frame", end)
			}
			end = r.off + int64(len(r.payload))
		}
		if end != good {
			t.Fatalf("records end at %d, good prefix at %d", end, good)
		}
		// Reopening the truncated file is a fixed point.
		var again []rec
		l2, err := NewLog(file, good, format, collect(&again))
		if err != nil || l2.Size() != good || len(again) != len(recs) {
			t.Fatalf("reopen: size %d -> %d, %d -> %d records, err %v", good, l2.Size(), len(recs), len(again), err)
		}
	})
}
