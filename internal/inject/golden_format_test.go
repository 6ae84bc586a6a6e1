package inject

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// The golden tier's segment layout, hand-built from the documented frame
// — [16-byte key][u32 len LE][u32 crc32-IEEE(payload) LE][payload] in
// golden-XX.log, XX = (Program ^ Config) % 16 — must be read back and
// extended byte-for-byte, so existing -golden-cache dirs reopen.
func TestGoldenDiskFormatPinned(t *testing.T) {
	frame := func(k GoldenKey, payload []byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, k.Program)
		b = binary.LittleEndian.AppendUint64(b, k.Config)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
		return append(b, payload...)
	}
	dir := t.TempDir()
	k := GoldenKey{Program: 0xdeadbeef00000006, Config: 0x00000000cafe000c} // 0x06 ^ 0x0c = 0x0a
	seg := filepath.Join(dir, "golden-0a.log")
	if err := os.WriteFile(seg, frame(k, []byte("pinned-bundle")), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := NewGoldenCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := g.disk.Get(k.tag()); string(v) != "pinned-bundle" {
		t.Fatalf("Get = %q: hand-built segment not read back", v)
	}
	k2 := GoldenKey{Config: 0x0a}
	g.disk.Put(k2.tag(), []byte("second"))
	g.disk.Put(k.tag(), []byte("ignored: first write wins"))
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	want := append(frame(k, []byte("pinned-bundle")), frame(k2, []byte("second"))...)
	if got, _ := os.ReadFile(seg); string(got) != string(want) {
		t.Fatalf("segment bytes moved:\n got %x\nwant %x", got, want)
	}
}
