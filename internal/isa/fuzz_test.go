package isa

import "testing"

// FuzzDecode asserts the decoder is total and canonicalizing: arbitrary
// bytes never panic, the consumed length stays within the buffer, and
// decoding is idempotent — re-encoding a decoded instruction and
// decoding again yields the identical instruction. (Byte-identity does
// not hold in general: selector and register fields decode modulo their
// table sizes, like ignored prefix bits in dense CISC encodings.)
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x00, 0x01})
	f.Add([]byte{0xff, 0xff, 0xff})
	// A valid encoded instruction as seed.
	det := Deterministic()
	seed := MakeInst(det[0])
	f.Add(Encode(nil, &seed))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, n, err := Decode(data)
		if n < 0 || (err == nil && n > len(data)) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if err != nil {
			return
		}
		re := Encode(nil, &in)
		in2, n2, err2 := Decode(re)
		if err2 != nil {
			t.Fatalf("canonical encoding failed to decode: %v", err2)
		}
		if n2 != len(re) {
			t.Fatalf("canonical decode consumed %d of %d", n2, len(re))
		}
		if in2.V != in.V || in2.NOps != in.NOps || in2.Ops != in.Ops {
			t.Fatalf("decode not idempotent: %v vs %v", in, in2)
		}
	})
}
