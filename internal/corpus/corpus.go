// Package corpus is the persistent program archive of the Harpocrates
// reproduction: a content-addressed, on-disk store of evolved HXPG test
// programs with per-structure metadata, the piece that turns single
// refinement runs into an accumulating production corpus (the
// SiliFuzz-style corpus-centric workflow: archive, dedupe, rank,
// distill, serve).
//
// Layout of a store directory:
//
//	<dir>/manifest.json        versioned index: hash → metadata
//	<dir>/programs/<hash>.hxpg the materialized program (prog container)
//	<dir>/genotypes/<hash>.gt  the genotype (seed + variant sequence),
//	                           present for programs evolved in-repo;
//	                           imported foreign programs have none
//
// Filenames are the 16-hex-digit content hash of the genotype
// (gen.Genotype.Hash — the same key the evaluator's fitness memo uses)
// or, for programs without a genotype, of the serialized program bytes.
// All writes go through segstore.WriteFileAtomic (temp file, fsync,
// atomic rename), so a crashed writer or a power cut never leaves a torn
// program or manifest behind, and concurrent adds of the same content
// are harmless (last rename wins on identical bytes).
package corpus

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"harpocrates/internal/binfmt"
	"harpocrates/internal/gen"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
	"harpocrates/internal/segstore"
	"harpocrates/internal/stats"
)

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

const (
	manifestName = "manifest.json"
	programDir   = "programs"
	genotypeDir  = "genotypes"
)

// Genotype sidecar container format ("HXGT").
const (
	genoMagic   = 0x48584754 // "HXGT"
	genoVersion = 1
)

// Meta is one archived program's metadata.
type Meta struct {
	// Hash is the 16-hex-digit content hash (also the filename stem).
	Hash string `json:"hash"`
	// Name is the program's display name.
	Name string `json:"name"`
	// Structure is the canonical target structure name
	// (coverage.Structure.String()).
	Structure string `json:"structure"`
	// Fitness is the structure's coverage metric for this program.
	Fitness float64 `json:"fitness"`
	// Seed is the genotype's materialization seed (0 when unknown).
	Seed uint64 `json:"seed,omitempty"`
	// Iteration is the refinement iteration of origin (-1 for programs
	// imported from outside a refinement run).
	Iteration int `json:"iteration"`
	// Insts is the instruction count.
	Insts int `json:"insts"`
	// Genotype reports whether a genotype sidecar exists (only those
	// entries can seed future refinement runs).
	Genotype bool `json:"genotype,omitempty"`

	// Fault-detection measurement, filled by ranking. Detected holds the
	// sorted injection indices the program detects under the fault model
	// (FaultType, FaultN, FaultSeed, FaultWindow, FaultBurst); indices
	// are comparable across programs because injection i's fault
	// parameters are a pure function of the model and i.
	FaultType   string  `json:"fault_type,omitempty"`
	FaultN      int     `json:"fault_n,omitempty"`
	FaultSeed   uint64  `json:"fault_seed,omitempty"`
	FaultWindow uint64  `json:"fault_window,omitempty"`
	FaultBurst  int     `json:"fault_burst,omitempty"`
	Detection   float64 `json:"detection,omitempty"`
	Detected    []int   `json:"detected,omitempty"`
}

// Ranked reports whether the entry carries a detection measurement.
func (m *Meta) Ranked() bool { return m.FaultN > 0 }

// setFaults records c's fault model as the injector reads it, so two
// spellings of one model record the same universe: the window only of
// an intermittent model (the others never read it) and at least 1 cycle,
// the burst only when it is wider than one bit.
func (m *Meta) setFaults(c *inject.Campaign) {
	m.FaultType, m.FaultN, m.FaultSeed = c.Type.String(), c.N, c.Seed
	m.FaultWindow, m.FaultBurst = 0, 0
	if c.Type == inject.Intermittent {
		m.FaultWindow = max(c.IntermittentLen, 1)
	}
	if c.BurstLen > 1 {
		m.FaultBurst = c.BurstLen
	}
}

// sameFaults reports whether two measurements index one fault universe,
// the one condition under which their detected sets are comparable.
func (m *Meta) sameFaults(o *Meta) bool {
	return m.FaultType == o.FaultType && m.FaultN == o.FaultN && m.FaultSeed == o.FaultSeed &&
		m.FaultWindow == o.FaultWindow && m.FaultBurst == o.FaultBurst
}

// faults names the fault model in a refusal.
func (m *Meta) faults() string {
	return fmt.Sprintf("%s N=%d seed=%d window=%d burst=%d",
		m.FaultType, m.FaultN, m.FaultSeed, m.FaultWindow, m.FaultBurst)
}

// clone deep-copies the metadata (callers get copies, never the
// store's internal pointers).
func (m *Meta) clone() *Meta {
	c := *m
	c.Detected = append([]int(nil), m.Detected...)
	return &c
}

// manifest is the on-disk index.
type manifest struct {
	Version int              `json:"version"`
	Entries map[string]*Meta `json:"entries"`
}

// Store is an open corpus directory. All methods are safe for
// concurrent use.
type Store struct {
	dir string
	ob  *obs.Observer

	mu      sync.Mutex
	entries map[string]*Meta
	// maxPerStructure bounds the archive per target structure
	// (0 = unbounded); see SetBound.
	maxPerStructure int
}

// Open opens (creating if needed) the corpus store at dir. The observer
// may be nil.
func Open(dir string, ob *obs.Observer) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, programDir), filepath.Join(dir, genotypeDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
	}
	s := &Store{dir: dir, ob: ob, entries: make(map[string]*Meta)}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		s.setSizeGauge()
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("corpus: read manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("corpus: parse manifest: %w", err)
	}
	if man.Version != ManifestVersion {
		return nil, fmt.Errorf("corpus: unsupported manifest version %d (want %d)", man.Version, ManifestVersion)
	}
	for h, m := range man.Entries {
		if m.Hash == "" {
			m.Hash = h
		}
		s.entries[h] = m
	}
	s.setSizeGauge()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetBound caps the number of archived programs per target structure
// (0 = unbounded). When an Add pushes a structure over the bound, the
// lowest-fitness entries are evicted deterministically (ties broken by
// hash), so the archive is a fitness-ranked top-N per structure
// regardless of insertion order.
func (s *Store) SetBound(n int) {
	s.mu.Lock()
	s.maxPerStructure = n
	s.mu.Unlock()
}

// HashProgram content-hashes a program without a genotype (foreign
// .hxpg imports) by folding its serialized bytes.
func HashProgram(p *prog.Program) uint64 { return HashBytes(p.Serialize()) }

// HashBytes folds arbitrary bytes with the store's Mix64 chain — the
// single content-hashing convention shared by the corpus filenames and
// every spec hash derived elsewhere (the internal/queue result cache
// keys programs, configurations and fault specs with it, so cache keys
// and corpus keys agree about what "same content" means).
func HashBytes(data []byte) uint64 { return stats.HashBytes(data) }

// Key renders a content hash as the 16-hex-digit store key.
func Key(h uint64) string { return fmt.Sprintf("%016x", h) }

// AddResult reports what one Add did.
type AddResult struct {
	Hash    string
	Added   bool     // false: content already archived (dedup hit)
	Evicted []string // hashes evicted to keep the structure bound
}

// Add archives a program. The genotype may be nil (foreign programs);
// when present it both supplies the content hash and is persisted so
// the entry can seed future refinement runs. meta's Hash, Insts, Seed
// and Genotype fields are filled by the store; Structure, Fitness,
// Iteration and (optionally) Name come from the caller.
func (s *Store) Add(p *prog.Program, g *gen.Genotype, meta Meta) (AddResult, error) {
	var key string
	if g != nil {
		key = Key(g.Hash())
	} else {
		key = Key(HashProgram(p))
	}
	res := AddResult{Hash: key}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		s.ob.Counter("corpus.dedup.hits").Inc()
		return res, nil
	}

	if err := segstore.WriteFileAtomic(filepath.Join(s.dir, programDir, key+".hxpg"), p.Serialize()); err != nil {
		return res, err
	}
	if g != nil {
		if err := segstore.WriteFileAtomic(filepath.Join(s.dir, genotypeDir, key+".gt"), EncodeGenotype(g)); err != nil {
			return res, err
		}
		meta.Seed = g.Seed
		meta.Genotype = true
	}
	meta.Hash = key
	meta.Insts = len(p.Insts)
	if meta.Name == "" {
		meta.Name = p.Name
	}
	s.entries[key] = meta.clone()
	res.Added = true

	if s.maxPerStructure > 0 {
		res.Evicted = s.evictLocked(meta.Structure)
		for _, h := range res.Evicted {
			if h == key {
				// The new entry itself was the weakest: it is already gone
				// again, but the add still happened (and dedup of an
				// identical future Add is not wanted for evicted content).
				res.Added = false
			}
		}
	}
	if err := s.flushLocked(); err != nil {
		return res, err
	}
	s.setSizeGauge()
	return res, nil
}

// evictLocked enforces the per-structure bound, removing the
// lowest-fitness entries (ties broken by ascending hash, so eviction is
// deterministic under any insertion order). Caller holds s.mu.
func (s *Store) evictLocked(structure string) []string {
	var sameStruct []*Meta
	for _, m := range s.entries {
		if m.Structure == structure {
			sameStruct = append(sameStruct, m)
		}
	}
	if len(sameStruct) <= s.maxPerStructure {
		return nil
	}
	sort.Slice(sameStruct, func(a, b int) bool {
		if sameStruct[a].Fitness != sameStruct[b].Fitness {
			return sameStruct[a].Fitness < sameStruct[b].Fitness
		}
		return sameStruct[a].Hash < sameStruct[b].Hash
	})
	var evicted []string
	for _, m := range sameStruct[:len(sameStruct)-s.maxPerStructure] {
		s.removeLocked(m.Hash)
		evicted = append(evicted, m.Hash)
	}
	s.ob.Counter("corpus.evictions").Add(int64(len(evicted)))
	return evicted
}

// removeLocked deletes an entry and its files. Caller holds s.mu.
func (s *Store) removeLocked(hash string) {
	delete(s.entries, hash)
	os.Remove(filepath.Join(s.dir, programDir, hash+".hxpg"))
	os.Remove(filepath.Join(s.dir, genotypeDir, hash+".gt"))
}

// Remove deletes an entry and its files, then flushes the manifest.
func (s *Store) Remove(hash string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[hash]; !ok {
		return fmt.Errorf("corpus: no entry %s", hash)
	}
	s.removeLocked(hash)
	if err := s.flushLocked(); err != nil {
		return err
	}
	s.setSizeGauge()
	return nil
}

// Get loads an archived program.
func (s *Store) Get(hash string) (*prog.Program, error) {
	return prog.Load(filepath.Join(s.dir, programDir, hash+".hxpg"))
}

// ProgramPath returns the on-disk path of an archived program.
func (s *Store) ProgramPath(hash string) string {
	return filepath.Join(s.dir, programDir, hash+".hxpg")
}

// Genotype loads an archived genotype.
func (s *Store) Genotype(hash string) (*gen.Genotype, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, genotypeDir, hash+".gt"))
	if err != nil {
		return nil, err
	}
	return DecodeGenotype(data)
}

// Entry returns a copy of one entry's metadata.
func (s *Store) Entry(hash string) (*Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.entries[hash]
	if !ok {
		return nil, false
	}
	return m.clone(), true
}

// Len returns the number of archived programs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// List returns copies of all entries, ordered by structure, then
// fitness descending, then hash — the archive's ranking order.
func (s *Store) List() []*Meta {
	s.mu.Lock()
	out := make([]*Meta, 0, len(s.entries))
	for _, m := range s.entries {
		out = append(out, m.clone())
	}
	s.mu.Unlock()
	sortRanked(out)
	return out
}

// ListStructure returns the ranked entries of one structure.
func (s *Store) ListStructure(structure string) []*Meta {
	var out []*Meta
	for _, m := range s.List() {
		if m.Structure == structure {
			out = append(out, m)
		}
	}
	return out
}

// sortRanked orders metas by (structure, fitness desc, hash).
func sortRanked(ms []*Meta) {
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].Structure != ms[b].Structure {
			return ms[a].Structure < ms[b].Structure
		}
		if ms[a].Fitness != ms[b].Fitness {
			return ms[a].Fitness > ms[b].Fitness
		}
		return ms[a].Hash < ms[b].Hash
	})
}

// Elites returns up to k archived genotypes of the structure, fittest
// first — the seed population for a new refinement run.
func (s *Store) Elites(structure string, k int) ([]*gen.Genotype, error) {
	var out []*gen.Genotype
	for _, m := range s.ListStructure(structure) {
		if !m.Genotype || len(out) >= k {
			continue
		}
		g, err := s.Genotype(m.Hash)
		if err != nil {
			return nil, fmt.Errorf("corpus: load genotype %s: %w", m.Hash, err)
		}
		out = append(out, g)
	}
	return out, nil
}

// SetDetection records campaign c's measurement st of an entry: c's
// fault model, the detection rate and the detected-injection indices
// (inject.Stats.DetectedSet): every injection whose outcome deviated
// from Masked — SDC, crash, hang or detected-by-trap alike.
func (s *Store) SetDetection(hash string, c *inject.Campaign, st *inject.Stats) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.entries[hash]
	if !ok {
		return fmt.Errorf("corpus: no entry %s", hash)
	}
	m.setFaults(c)
	m.Detection = st.Detection()
	m.Detected = st.DetectedSet()
	return s.flushLocked()
}

// Export copies the top k programs of a structure (all when k <= 0)
// into outDir as rank-named .hxpg files and returns the written paths —
// the fleet-serving side of the corpus workflow.
func (s *Store) Export(structure string, k int, outDir string) ([]string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	metas := s.ListStructure(structure)
	if k > 0 && len(metas) > k {
		metas = metas[:k]
	}
	var paths []string
	for i, m := range metas {
		data, err := os.ReadFile(s.ProgramPath(m.Hash))
		if err != nil {
			return nil, fmt.Errorf("corpus: export %s: %w", m.Hash, err)
		}
		name := fmt.Sprintf("%s-%03d-%s.hxpg", strings.ToLower(structure), i, m.Hash)
		dst := filepath.Join(outDir, name)
		if err := segstore.WriteFileAtomic(dst, data); err != nil {
			return nil, err
		}
		paths = append(paths, dst)
	}
	return paths, nil
}

// flushLocked writes the manifest atomically. Caller holds s.mu.
// Map keys marshal sorted, so the same archive state always produces
// the same manifest bytes.
func (s *Store) flushLocked() error {
	man := manifest{Version: ManifestVersion, Entries: s.entries}
	data, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fmt.Errorf("corpus: marshal manifest: %w", err)
	}
	return segstore.WriteFileAtomic(filepath.Join(s.dir, manifestName), append(data, '\n'))
}

func (s *Store) setSizeGauge() {
	s.ob.Gauge("corpus.archive.size").Set(float64(len(s.entries)))
}

// EncodeGenotype serializes a genotype into the HXGT sidecar container
// (magic, version, then gen.Genotype.Codec's body: materialization
// seed, variant sequence). It is also the genotype wire format of the
// internal/dist protocol.
func EncodeGenotype(g *gen.Genotype) []byte {
	c := binfmt.NewEncoder(make([]byte, 0, 20+2*len(g.Variants)))
	_ = genotypeCodec(c, g) // the walker only fails when decoding
	return c.Encoded()
}

// DecodeGenotype deserializes an HXGT genotype container written by
// EncodeGenotype, rejecting truncated and over-long payloads.
func DecodeGenotype(data []byte) (*gen.Genotype, error) {
	g := &gen.Genotype{}
	if err := genotypeCodec(binfmt.NewDecoder(data), g); err != nil {
		return nil, fmt.Errorf("corpus: genotype: %w", err)
	}
	return g, nil
}

func genotypeCodec(c *binfmt.Codec, g *gen.Genotype) error {
	c.Header(genoMagic, genoVersion)
	g.Codec(c)
	return c.End()
}
