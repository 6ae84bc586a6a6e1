package dist

import (
	"bytes"
	"slices"
	"sync"

	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
	"harpocrates/internal/stats"
)

// programMemoEntries bounds the process-wide memo of decoded programs.
// A fleet job reaches an executor as many shard requests carrying the
// same HXPG bytes, and a refinement run keeps re-submitting a small
// working set of programs; a few dozen cover both, at roughly three
// times a program's wire size each (tens of KB for generated tests).
const programMemoEntries = 32

// heldProgram is one memoised program. wire is the memo's own copy and
// is never modified; prog is shared by every campaign built from it,
// which only read it (each run's state comes from Program.NewState).
type heldProgram struct {
	hash uint64
	wire []byte
	prog *prog.Program
}

// programMemo is the content-addressed LRU behind CampaignFor: every
// executor in the process — the pull worker, the push Server — hashes
// and parses a program once, however many shards of however many jobs
// carry it.
type programMemo struct {
	mu   sync.Mutex
	held []*heldProgram // most recently used first
}

var programs programMemo

// decode returns the parsed form and content hash of wire. A hit needs
// the same hash and the same bytes, so a hash collision is decoded on
// its own; bytes the memo handed out itself (HeldProgram) are recognised
// by identity and not even hashed again. Decoding happens under the
// lock: concurrent shards of one fresh job parse its program once.
func (m *programMemo) decode(wire []byte, ob *obs.Observer) (*prog.Program, uint64, error) {
	h := m.touch(func(h *heldProgram) bool {
		return len(wire) > 0 && len(h.wire) == len(wire) && &h.wire[0] == &wire[0]
	})
	if h == nil {
		hash := stats.HashBytes(wire)
		m.mu.Lock()
		defer m.mu.Unlock()
		h = m.touchLocked(func(h *heldProgram) bool { return h.hash == hash && bytes.Equal(h.wire, wire) })
		if h == nil {
			p, err := DecodeProgram(wire)
			if err != nil {
				return nil, 0, err
			}
			ob.Counter("dist.program.decodes").Inc()
			if len(m.held) == programMemoEntries {
				m.held = m.held[:programMemoEntries-1]
			}
			m.held = slices.Insert(m.held, 0, &heldProgram{hash: hash, wire: bytes.Clone(wire), prog: p})
			return p, hash, nil
		}
	}
	ob.Counter("dist.program.reuses").Inc()
	return h.prog, h.hash, nil
}

func (m *programMemo) touch(match func(*heldProgram) bool) *heldProgram {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.touchLocked(match)
}

// touchLocked returns the first held program that matches, now the most
// recently used, or nil.
func (m *programMemo) touchLocked(match func(*heldProgram) bool) *heldProgram {
	for i, h := range m.held {
		if match(h) {
			copy(m.held[1:i+1], m.held[:i])
			m.held[0] = h
			return h
		}
	}
	return nil
}

// HeldPrograms lists the content hashes of the programs this process
// can resolve without being sent them: what a pull worker advertises in
// LeaseRequest.Programs.
func HeldPrograms() []uint64 {
	programs.mu.Lock()
	defer programs.mu.Unlock()
	out := make([]uint64, len(programs.held))
	for i, h := range programs.held {
		out[i] = h.hash
	}
	return out
}

// HeldProgram returns the wire bytes of a held program by content hash,
// for putting back into a lease that omitted them. They are bytes this
// process received and hashed itself — the hash in a lease only selects
// among them, it is never believed about bytes that came with it. The
// slice is shared and must not be modified.
func HeldProgram(hash uint64) ([]byte, bool) {
	if h := programs.touch(func(h *heldProgram) bool { return h.hash == hash }); h != nil {
		return h.wire, true
	}
	return nil, false
}

// ForgetPrograms empties the memo (campaigns already built keep their
// programs). Tests use it to start from a process that has seen nothing.
func ForgetPrograms() {
	programs.mu.Lock()
	defer programs.mu.Unlock()
	programs.held = nil
}
