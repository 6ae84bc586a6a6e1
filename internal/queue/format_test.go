package queue

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// pinnedFrame hand-builds one record from the documented layout —
// [tag][u32 len LE][u32 crc32-IEEE(payload) LE][payload] — without
// touching segstore, so these tests pin the bytes existing data dirs
// already hold.
func pinnedFrame(tag, payload []byte) []byte {
	b := append([]byte(nil), tag...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

func TestCacheFormatPinned(t *testing.T) {
	dir := t.TempDir()
	k := CacheKey{Program: 0x1122334455667703, Config: 0x0102030405060705, Spec: 0xa1a2a3a4a5a6a70f}
	var tag []byte
	for _, w := range []uint64{k.Program, k.Config, k.Spec} {
		tag = binary.LittleEndian.AppendUint64(tag, w)
	}
	// Shard = (Program ^ Config ^ Spec) % 16 = (0x03 ^ 0x05 ^ 0x0f) = 0x09.
	seg := filepath.Join(dir, "seg-09.log")
	if err := os.WriteFile(seg, pinnedFrame(tag, []byte("pinned-result")), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get(k); !ok || string(v) != "pinned-result" || c.Len() != 1 {
		t.Fatalf("Get = %q, %v (Len %d): hand-built segment not read back", v, ok, c.Len())
	}
	// And the writer produces the same bytes: a second key of the same
	// shard lands right behind the first, in the same layout.
	k2 := CacheKey{Program: 0x09}
	if err := c.Put(k2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	want := append(pinnedFrame(tag, []byte("pinned-result")),
		pinnedFrame(append([]byte{0x09}, make([]byte, 23)...), []byte("second"))...)
	if got, _ := os.ReadFile(seg); string(got) != string(want) {
		t.Fatalf("segment bytes moved:\n got %x\nwant %x", got, want)
	}
}

func TestWALFormatPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	// "HQWL" v1: u32 0x4851574c LE, u32 1 LE.
	hdr := []byte{0x4c, 0x57, 0x51, 0x48, 1, 0, 0, 0}
	file := append(append([]byte(nil), hdr...), pinnedFrame([]byte{3}, []byte(`{"id":"j-7"}`))...)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != 3 || string(recs[0].Payload) != `{"id":"j-7"}` {
		t.Fatalf("replayed %+v from a hand-built WAL", recs)
	}
	if err := w.Append(5, []byte("next")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	want := append(file, pinnedFrame([]byte{5}, []byte("next"))...)
	if got, _ := os.ReadFile(path); string(got) != string(want) {
		t.Fatalf("wal bytes moved:\n got %x\nwant %x", got, want)
	}
}
