package uarch

import "harpocrates/internal/isa"

// corruptInst models a bit flip on the fetch path: the instruction is
// re-encoded to its HX86 byte representation, one bit of those bytes is
// flipped, and the result is decoded again. The flip can land in a
// don't-care position (identical decode — masked), change the variant
// or an operand (silent corruption, crash or trap downstream), or
// render the bytes undecodable (ok=false — the fetcher turns that into
// a #UD trap at execute).
//
// HX86 PCs are instruction indices, not byte addresses, so a corrupted
// encoding whose length differs from the original's does not shift
// subsequent fetches; the re-decoded instruction simply replaces the
// original in its slot. The bit index is reduced modulo the actual
// encoded length, so any fault-spec bit draws a valid position.
func corruptInst(in isa.Inst, bit int) (ci isa.Inst, ok bool) {
	var buf [2 + isa.MaxOperands*8]byte
	enc := isa.Encode(buf[:0], &in)
	b := bit % (8 * len(enc))
	enc[b/8] ^= 1 << uint(b%8)
	ci, _, err := isa.Decode(enc)
	return ci, err == nil
}
