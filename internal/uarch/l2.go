package uarch

// l2tags is a tag-only model of a unified second-level cache. Data
// correctness is entirely handled by the L1D (which reads and writes the
// backing memory image); the L2 tag array determines *timing* — whether
// an L1 miss is served at L2 latency or memory latency — and receives
// next-line prefetches. Keeping it tag-only means the timing extension
// cannot perturb architectural results, which randomized differential
// tests against the functional emulator verify.
type l2tags struct {
	numSets   int
	ways      int
	lineBytes int
	valid     []bool
	tag       []uint64
	lastUse   []uint64
	// from and touched are dcache's, per chunk of l2ChunkSets sets.
	from    []*l2Chunk
	touched []uint64

	hits, misses, prefetches uint64
}

// l2ChunkSets is the number of L2 sets a checkpoint copies or shares as
// one unit. Between consecutive checkpoints 94-96 % of 8-set chunks are
// unchanged.
const l2ChunkSets = 8

// numChunks returns how many checkpoint chunks cover the tag array.
func (t *l2tags) numChunks() int { return (t.numSets + l2ChunkSets - 1) / l2ChunkSets }

// touch marks set's chunk as written.
func (t *l2tags) touch(set int) {
	k := set / l2ChunkSets
	t.touched[k>>6] |= 1 << uint(k&63)
}

// initL2Tags builds the L2 tag model, reusing a previous instance's
// arrays when the geometry matches (the pooled-core fast path).
func initL2Tags(t *l2tags, cfg CacheConfig) *l2tags {
	if cfg.SizeBytes == 0 {
		return nil
	}
	numSets := cfg.NumSets()
	n := numSets * cfg.Ways
	if t != nil && t.numSets == numSets && t.ways == cfg.Ways && t.lineBytes == cfg.LineBytes {
		// Invalidating is enough: tag and lastUse entries are only read
		// once a line is valid again (and thus rewritten by fill).
		clear(t.valid)
		t.from = grow(t.from, t.numChunks())
		clear(t.from)
		t.touched = grow(t.touched, (t.numChunks()+63)/64)
		clear(t.touched)
		t.hits, t.misses, t.prefetches = 0, 0, 0
		return t
	}
	t = &l2tags{
		numSets:   numSets,
		ways:      cfg.Ways,
		lineBytes: cfg.LineBytes,
		valid:     make([]bool, n),
		tag:       make([]uint64, n),
		lastUse:   make([]uint64, n),
	}
	t.from = make([]*l2Chunk, t.numChunks())
	t.touched = make([]uint64, (t.numChunks()+63)/64)
	return t
}

func (t *l2tags) setAndTag(addr uint64) (int, uint64) {
	line := addr / uint64(t.lineBytes)
	return int(line) % t.numSets, line / uint64(t.numSets)
}

// access probes the L2 for the line containing addr, filling on miss.
// It returns whether the line was present.
func (t *l2tags) access(addr, cycle uint64) bool {
	set, tag := t.setAndTag(addr)
	base := set * t.ways
	for w := 0; w < t.ways; w++ {
		if t.valid[base+w] && t.tag[base+w] == tag {
			t.hits++
			t.lastUse[base+w] = cycle
			t.touch(set)
			return true
		}
	}
	t.misses++
	t.fill(set, tag, cycle)
	return false
}

// prefetch installs a line without touching the demand statistics.
func (t *l2tags) prefetch(addr, cycle uint64) {
	set, tag := t.setAndTag(addr)
	base := set * t.ways
	for w := 0; w < t.ways; w++ {
		if t.valid[base+w] && t.tag[base+w] == tag {
			return
		}
	}
	t.prefetches++
	t.fill(set, tag, cycle)
}

func (t *l2tags) fill(set int, tag, cycle uint64) {
	base := set * t.ways
	victim := base
	for w := 0; w < t.ways; w++ {
		if !t.valid[base+w] {
			victim = base + w
			break
		}
		if t.lastUse[base+w] < t.lastUse[victim] {
			victim = base + w
		}
	}
	t.valid[victim] = true
	t.tag[victim] = tag
	t.lastUse[victim] = cycle
	t.touch(set)
}
