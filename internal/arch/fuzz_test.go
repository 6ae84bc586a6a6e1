package arch

import (
	"testing"

	"harpocrates/internal/isa"
)

// FuzzExecute runs arbitrary decoded byte programs on the emulator: no
// input may panic or corrupt the crash taxonomy (every run ends clean,
// with a classified crash, or at the step bound).
func FuzzExecute(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x00, 0x01, 0x02})
	f.Add([]byte{0x10, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		insts, _ := isa.DecodeAll(data)
		if len(insts) == 0 {
			return
		}
		mem := NewMemory()
		if err := mem.AddRegion(Region{Name: "data", Base: 0x10000, Size: 4096, Writable: true}); err != nil {
			t.Fatal(err)
		}
		s := NewState(mem)
		s.GPR[isa.RSP] = 0x10000 + 2048
		s.GPR[isa.R14] = 0x10000
		n, cerr := Run(insts, s, 2048)
		if n < 0 {
			t.Fatal("negative step count")
		}
		if cerr != nil && cerr.Kind == CrashNone {
			t.Fatal("crash with no kind")
		}
	})
}
