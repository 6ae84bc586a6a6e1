package prog

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"harpocrates/internal/isa"
)

// TestProgramFormatPinned hand-builds an HXPG container — one data
// region, one zero-fill region, two instructions — from the documented
// layout and checks both directions against it. (The instruction bytes
// are the isa layer's; the container only length-prefixes them.)
func TestProgramFormatPinned(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	p := &Program{
		Name:      "pin",
		Insts:     randomSerialProgram(t, 1).Insts[:2],
		InitFlags: isa.Flags(0x05) & isa.AllFlags,
		Regions: []RegionSpec{
			{Name: "d", Base: 0x10000, Data: data, Writable: true},
			{Name: "zz", Base: 0x20000, Size: 128},
		},
	}
	p.InitGPR[0], p.InitGPR[isa.NumGPR-1] = 1, 0x0102030405060708
	p.InitXMM[1] = [2]uint64{2, 3}

	le := binary.LittleEndian
	want := []byte{0x47, 0x50, 0x58, 0x48, 1, 0, 0, 0} // magic 0x48585047, version
	want = append(want, 3, 0, 0, 0, 'p', 'i', 'n')
	for _, v := range p.InitGPR {
		want = le.AppendUint64(want, v)
	}
	for _, x := range p.InitXMM {
		want = le.AppendUint64(le.AppendUint64(want, x[0]), x[1])
	}
	want = append(want, byte(p.InitFlags))
	want = append(want, 2, 0, 0, 0) // region count
	want = append(want, 1, 0, 0, 0, 'd')
	want = append(want, 0, 0, 1, 0, 0, 0, 0, 0) // base
	want = append(want, 64, 0, 0, 0)            // size
	want = append(want, 3)                      // writable | data present
	want = append(want, data...)
	want = append(want, 2, 0, 0, 0, 'z', 'z')
	want = append(want, 0, 0, 2, 0, 0, 0, 0, 0)
	want = append(want, 128, 0, 0, 0)
	want = append(want, 0) // read-only, zero-filled: no data follows
	var enc []byte
	for _, in := range p.Insts {
		enc = isa.Encode(enc, &in)
	}
	want = append(want, 2, 0, 0, 0) // instruction count
	want = le.AppendUint32(want, uint32(len(enc)))
	want = append(want, enc...)

	var buf bytes.Buffer
	if n, err := p.WriteTo(&buf); err != nil || int(n) != len(want) {
		t.Fatalf("WriteTo = %d, %v; want %d bytes", n, err, len(want))
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encode:\n got %x\nwant %x", buf.Bytes(), want)
	}
	got, err := ReadProgram(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("decode:\n got %+v\nwant %+v", got, p)
	}
}
