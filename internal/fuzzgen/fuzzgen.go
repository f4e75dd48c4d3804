// Package fuzzgen is a differential crash-state fuzzer for the detector.
//
// It closes the loop that WITCHER (Fu et al.) and the Representative
// Testing work (Gu et al.) argue every PM bug detector needs: an
// *independent oracle* that re-derives the expected verdicts from first
// principles, so a soundness or completeness regression in internal/shadow
// or the parallel runners is caught by construction instead of waiting for a
// hand-written workload to trip over it.
//
// The package has three parts:
//
//   - a deterministic, seed-driven generator (gen.go) that emits small
//     straight-line PM programs mixing raw Store/CLWB/SFENCE sequences,
//     commit-variable protocols and pmobj-style undo-log transactions, with
//     per-knob probabilities for the seeded bug classes (dropped flush,
//     dropped fence, read-before-persist, stale commit);
//   - a brute-force oracle (oracle.go) that shares no code with
//     internal/shadow: it replays the program, enumerates each failure
//     point's reachable crash images by taking persist-order-respecting
//     subsets of the pending stores, and classifies every post-failure read
//     directly from the paper's definitions;
//   - a differential driver (diff.go) that runs the same program through
//     core.Run — sequentially, with Workers>1, and in all three Modes —
//     and fails on any mismatch against the oracle (report keys, failure
//     point and post-run counts, benign bytes, trace-entry counts).
//
// Programs are plain data (JSON-serializable), so fuzzer-found
// discrepancies minimize to small reproducers checked into corpus/ and
// replayed as ordinary deterministic tests. Everything is derived from an
// explicit int64 seed: same seed, same program, same verdicts.
package fuzzgen

import (
	"encoding/json"
	"fmt"

	"github.com/pmemgo/xfdetector/internal/pmem"
)

// OpKind enumerates the operations a generated program can perform. It is a
// deliberately smaller alphabet than trace.Kind: just enough to express raw
// persistency sequences, commit-variable protocols and undo-log
// transactions as straight-line code.
type OpKind uint8

const (
	// OpStore is a regular cached store of [Addr, Addr+Size).
	OpStore OpKind = iota
	// OpNTStore is a non-temporal store: writeback-pending immediately.
	OpNTStore
	// OpCLWB requests writeback of the cache lines covering the range.
	OpCLWB
	// OpCLFlush behaves like OpCLWB for persistence purposes.
	OpCLFlush
	// OpFence is an SFENCE: an ordering point; in the pre-failure stage the
	// detector injects a failure point immediately before it.
	OpFence
	// OpLoad reads [Addr, Addr+Size); in the post-failure stage every load
	// is classified.
	OpLoad
	// OpTxBegin starts an undo-log transaction.
	OpTxBegin
	// OpTxAdd backs [Addr, Addr+Size) up in the undo log.
	OpTxAdd
	// OpTxCommit commits the innermost open transaction.
	OpTxCommit
	// OpTxAbort aborts the innermost open transaction.
	OpTxAbort
	// OpRegCommitVar registers [Addr, Addr+Size) as a commit variable.
	OpRegCommitVar
	// OpRegCommitRange associates [Addr2, Addr2+Size2) with the commit
	// variable at [Addr, Addr+Size).
	OpRegCommitRange
	numOpKinds
)

var opKindNames = [...]string{
	OpStore:          "store",
	OpNTStore:        "ntstore",
	OpCLWB:           "clwb",
	OpCLFlush:        "clflush",
	OpFence:          "sfence",
	OpLoad:           "load",
	OpTxBegin:        "tx_begin",
	OpTxAdd:          "tx_add",
	OpTxCommit:       "tx_commit",
	OpTxAbort:        "tx_abort",
	OpRegCommitVar:   "reg_commit_var",
	OpRegCommitRange: "reg_commit_range",
}

// String returns the lower-case mnemonic used in corpus files.
func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its mnemonic so corpus files stay
// readable and diffable.
func (k OpKind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(opKindNames) {
		return nil, fmt.Errorf("fuzzgen: cannot marshal invalid op kind %d", uint8(k))
	}
	return json.Marshal(opKindNames[k])
}

// UnmarshalJSON decodes a mnemonic produced by MarshalJSON.
func (k *OpKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, name := range opKindNames {
		if name == s {
			*k = OpKind(i)
			return nil
		}
	}
	return fmt.Errorf("fuzzgen: unknown op kind %q", s)
}

// Op is one operation of a generated program. Addr2/Size2 are used only by
// OpRegCommitRange (the associated address set).
type Op struct {
	Kind  OpKind `json:"op"`
	Addr  uint64 `json:"addr,omitempty"`
	Size  uint64 `json:"size,omitempty"`
	Addr2 uint64 `json:"addr2,omitempty"`
	Size2 uint64 `json:"size2,omitempty"`
}

// Program is a complete generated target: three straight-line op lists
// executed as the Setup, Pre and Post stages of a core.Target. Being plain
// data, a Program is its own reproducer.
type Program struct {
	Name     string `json:"name"`
	PoolSize uint64 `json:"pool_size"`
	Setup    []Op   `json:"setup,omitempty"`
	Pre      []Op   `json:"pre"`
	Post     []Op   `json:"post,omitempty"`
}

// MarshalIndent renders the program as the corpus-file JSON form.
func (p Program) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// ParseProgram decodes a corpus file.
func ParseProgram(data []byte) (Program, error) {
	var p Program
	if err := json.Unmarshal(data, &p); err != nil {
		return Program{}, fmt.Errorf("fuzzgen: parse program: %w", err)
	}
	return p, nil
}

// maxProgramPool bounds corpus pool sizes so a malformed file cannot make
// the oracle allocate unbounded per-byte state.
const maxProgramPool = 1 << 20

// Validate checks the invariants the executor and oracle rely on. It
// rejects out-of-bounds ranges (pool accessors would panic mid-run) and
// post-failure registrations that do not replay an earlier one: the
// equivalence contract between engine configurations assumes post-failure
// (re-)registrations are idempotent, which only holds when the original
// registration precedes every failure point that could observe it.
func (p Program) Validate() error {
	if p.PoolSize == 0 || p.PoolSize%pmem.CacheLineSize != 0 || p.PoolSize > maxProgramPool {
		return fmt.Errorf("fuzzgen: pool size %d must be a positive multiple of %d up to %d",
			p.PoolSize, pmem.CacheLineSize, maxProgramPool)
	}
	type reg struct{ a, s, a2, s2 uint64 }
	seen := map[reg]bool{}
	stages := []struct {
		name string
		ops  []Op
	}{{"setup", p.Setup}, {"pre", p.Pre}, {"post", p.Post}}
	for _, st := range stages {
		for i, op := range st.ops {
			if int(op.Kind) >= int(numOpKinds) {
				return fmt.Errorf("fuzzgen: %s op %d: invalid kind %d", st.name, i, uint8(op.Kind))
			}
			inBounds := func(a, s uint64) bool { return a+s >= a && a+s <= p.PoolSize }
			switch op.Kind {
			case OpStore, OpNTStore, OpCLWB, OpCLFlush, OpLoad, OpTxAdd, OpRegCommitVar:
				if !inBounds(op.Addr, op.Size) {
					return fmt.Errorf("fuzzgen: %s op %d (%s): range [0x%x, 0x%x) outside pool of size 0x%x",
						st.name, i, op.Kind, op.Addr, op.Addr+op.Size, p.PoolSize)
				}
			case OpRegCommitRange:
				if !inBounds(op.Addr, op.Size) || !inBounds(op.Addr2, op.Size2) {
					return fmt.Errorf("fuzzgen: %s op %d (%s): range outside pool of size 0x%x",
						st.name, i, op.Kind, p.PoolSize)
				}
			}
			switch op.Kind {
			case OpRegCommitVar, OpRegCommitRange:
				r := reg{op.Addr, op.Size, op.Addr2, op.Size2}
				if st.name == "post" && !seen[r] {
					return fmt.Errorf("fuzzgen: post op %d (%s) registers a commit variable not registered pre-failure; "+
						"post-failure registrations must be idempotent replays", i, op.Kind)
				}
				seen[r] = true
			}
		}
	}
	return nil
}

// OpIP is the synthetic source location attached to the i-th op of a stage.
// Each op gets a distinct location, so every generated operation has its
// own identity in report deduplication keys — exactly like distinct source
// lines in a real program.
func OpIP(stage string, i int) string {
	return fmt.Sprintf("fuzzgen/%s.go:%d", stage, i+1)
}

// rng is a splitmix64 generator: tiny, fast, and — unlike the global
// math/rand state — fully determined by its explicit seed, so every
// generated program is reproducible from its `-seed=N` line alone.
type rng struct{ s uint64 }

func newRng(seed int64, domain string) *rng {
	// Mix the domain (knob name) into the seed with FNV-1a so each knob
	// explores a different program sequence for the same seed numbers.
	h := uint64(14695981039346656037)
	for i := 0; i < len(domain); i++ {
		h ^= uint64(domain[i])
		h *= 1099511628211
	}
	return &rng{s: uint64(seed) ^ h}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// pct reports true with probability p/100.
func (r *rng) pct(p int) bool { return r.intn(100) < p }
