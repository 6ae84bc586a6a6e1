package queue

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh wal replayed %d records", len(recs))
	}
	want := []Record{
		{Kind: 1, Payload: []byte(`{"id":"j-1"}`)},
		{Kind: 2, Payload: []byte{}},
		{Kind: 3, Payload: bytes.Repeat([]byte{0xab}, 1000)},
	}
	for _, r := range want {
		if err := w.Append(r.Kind, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Kind != want[i].Kind || !bytes.Equal(r.Payload, want[i].Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
	// Appending after replay must extend, not clobber.
	if err := w2.Append(4, []byte("post-replay")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, recs, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || string(recs[3].Payload) != "post-replay" {
		t.Fatalf("after reopen+append: %d records", len(recs))
	}
}

// A torn tail (partial frame or payload from a crashed append) must be
// truncated, preserving every record before it.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(1, []byte("intact-one"))
	w.Append(2, []byte("intact-two"))
	w.Close()

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < 15; cut++ {
		if err := os.WriteFile(path, full[:len(full)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, recs, err := OpenWAL(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		w2.Close()
		if len(recs) != 1 || string(recs[0].Payload) != "intact-one" {
			t.Fatalf("cut %d: replayed %d records", cut, len(recs))
		}
	}
}

// A flipped payload byte fails the CRC; replay stops before the corrupt
// record.
func TestWALCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(1, []byte("good"))
	w.Append(2, []byte("soon-corrupt"))
	w.Close()

	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	os.WriteFile(path, data, 0o644)

	w2, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "good" {
		t.Fatalf("replayed %d records past a CRC failure", len(recs))
	}
	// The corrupt tail was truncated: appends go after the good record.
	if err := w2.Append(3, []byte("after")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, recs, _ = OpenWAL(path)
	if len(recs) != 2 || string(recs[1].Payload) != "after" {
		t.Fatalf("append after corruption: %d records", len(recs))
	}
}

func TestWALNotAWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("definitely not a WAL file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path); err == nil {
		t.Fatal("opened a non-WAL file without error")
	}
}
