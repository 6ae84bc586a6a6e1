package inject

import (
	"fmt"

	"harpocrates/internal/binfmt"
)

// Shard-result container format ("HXSR"): the compact, versioned binary
// codec for one campaign shard's Stats. It is the value format of the
// internal/queue content-addressed result cache and of the coordinator
// WAL's shard-completion records, so a cached or replayed shard result
// decodes to bytes-for-bytes the Stats the worker originally produced —
// which is what keeps cache-served campaigns bit-identical to uncached
// ones. The outcome byte values are the frozen wire values of Outcome
// (see the Outcome doc comment), so the format inherits the dist
// protocol's append-only evolution rule.
const (
	statsMagic   = 0x48585352 // "HXSR"
	statsVersion = 1

	// maxStatsOutcomes bounds a decoded outcome vector (a campaign far
	// larger than any real sweep).
	maxStatsOutcomes = 1 << 28
)

// codec walks the HXSR layout — header, seven u32 counters, u64 golden
// cycles, u32-counted outcome bytes — in whichever direction c runs.
func (s *Stats) codec(c *binfmt.Codec) error {
	c.Header(statsMagic, statsVersion)
	for _, f := range []*int{&s.N, &s.Masked, &s.SDC, &s.Crash, &s.Hang, &s.Trap, &s.Skipped} {
		binfmt.U32(c, f)
	}
	binfmt.U64(c, &s.GoldenCycles)
	binfmt.Slice(c, &s.Outcomes, 1, maxStatsOutcomes, func(o *Outcome) {
		binfmt.U8(c, o)
		if c.Decoding() && *o > Trap {
			c.Fail("undefined outcome %d", *o)
		}
	})
	// A shard result is one outcome per injection; anything else would be
	// merged into a campaign whose counters and vector disagree.
	if c.Decoding() && c.Err() == nil && len(s.Outcomes) != s.N {
		c.Fail("%d outcomes for N=%d", len(s.Outcomes), s.N)
	}
	return c.End()
}

// EncodeStats serializes shard statistics into the HXSR container.
func EncodeStats(s *Stats) []byte {
	c := binfmt.NewEncoder(make([]byte, 0, 48+len(s.Outcomes)))
	_ = s.codec(c) // the walker only fails when decoding
	return c.Encoded()
}

// DecodeStats deserializes an HXSR container written by EncodeStats,
// rejecting bad magic, unknown versions, truncated payloads, lengths the
// input cannot back, undefined outcome bytes, an outcome vector whose
// length is not N, and trailing bytes.
func DecodeStats(data []byte) (*Stats, error) {
	s := &Stats{}
	if err := s.codec(binfmt.NewDecoder(data)); err != nil {
		return nil, fmt.Errorf("inject: stats codec: %w", err)
	}
	return s, nil
}
