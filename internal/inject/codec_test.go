package inject

import (
	"bytes"
	"testing"
)

func TestStatsCodecRoundTrip(t *testing.T) {
	s := &Stats{
		N: 7, Masked: 2, SDC: 1, Crash: 1, Hang: 1, Trap: 2,
		GoldenCycles: 123456,
		Outcomes:     []Outcome{Masked, SDC, Crash, Hang, Trap, Trap, Masked},
	}
	enc := EncodeStats(s)
	got, err := DecodeStats(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Fatalf("round trip: got %+v, want %+v", got, s)
	}
	if !bytes.Equal(EncodeStats(got), enc) {
		t.Fatal("re-encoding is not byte-stable")
	}
}

func TestStatsCodecEmpty(t *testing.T) {
	s := &Stats{}
	got, err := DecodeStats(EncodeStats(s))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Fatalf("round trip: got %+v, want %+v", got, s)
	}
}

func TestStatsCodecRejects(t *testing.T) {
	good := EncodeStats(&Stats{N: 3, Masked: 3, Outcomes: []Outcome{Masked, Masked, Masked}})
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte{1, 2, 3, 4}, good[4:]...),
		"bad version": append(append([]byte{}, good[:4]...), append([]byte{9, 0, 0, 0}, good[8:]...)...),
		"truncated":   good[:len(good)-1],
		"trailing":    append(append([]byte{}, good...), 0),
		// N (the u32 after the 8-byte header) disagrees with the three
		// outcomes that follow.
		"short outcome vector": append(append(append([]byte{}, good[:8]...), 4, 0, 0, 0), good[12:]...),
		"undefined outcome":    append(append([]byte{}, good[:len(good)-1]...), byte(Trap)+1),
	}
	for name, data := range cases {
		if _, err := DecodeStats(data); err == nil {
			t.Errorf("%s: decode accepted corrupt payload", name)
		}
	}
}
