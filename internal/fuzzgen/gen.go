package fuzzgen

import "fmt"

// Knob selects the bug-class bias of the generator. Every knob mixes raw
// persistency sequences, commit-variable protocols and undo-log
// transactions; the knob only shifts the probabilities of the seeded
// mistakes, so each campaign concentrates on one class of discrepancy
// while still exercising the full detector surface.
type Knob string

const (
	// KnobClean generates programs with no seeded correctness bugs:
	// every store is flushed and fenced, every commit protocol is the
	// correct two-barrier form, every transaction writes back on commit.
	// (Accidental performance bugs — e.g. two stores to one cache line
	// flushed twice — can still occur and must match the oracle.)
	KnobClean Knob = "clean"
	// KnobDroppedFlush frequently omits the CLWB after a store.
	KnobDroppedFlush Knob = "dropped-flush"
	// KnobDroppedFence frequently omits the SFENCE after writebacks.
	KnobDroppedFence Knob = "dropped-fence"
	// KnobReadBeforePersist leaves trailing unpersisted stores at the end
	// of the pre-failure stage and makes the post-failure stage read every
	// range ever written.
	KnobReadBeforePersist Knob = "read-before-persist"
	// KnobStaleCommit generates mostly commit-variable protocols, most of
	// them broken (commit write never persisted, data and commit persisted
	// by one barrier, data modified outside the commit window).
	KnobStaleCommit Knob = "stale-commit"
	// KnobMixed enables every mistake at moderate probability.
	KnobMixed Knob = "mixed"
)

// Knobs returns all generator knobs, in campaign order.
func Knobs() []Knob {
	return []Knob{KnobClean, KnobDroppedFlush, KnobDroppedFence,
		KnobReadBeforePersist, KnobStaleCommit, KnobMixed}
}

// genCfg holds the per-knob probabilities (percentages).
type genCfg struct {
	dropFlush   int // omit the writeback after a raw store
	dropFence   int // omit the fence closing a raw/tx block
	commitBlock int // a pre block is a commit-variable protocol
	txBlock     int // a pre block is an undo-log transaction
	staleCommit int // a commit block uses a broken protocol variant
	trailing    int // unfenced stores at the very end of the pre stage
	dupAdd      int // duplicate TX_ADD inside a transaction
	strayFlush  int // flush of a random (possibly unmodified) range
	outsideTx   int // store outside the TX_ADDed range while in tx
	postWrite   int // a post op overwrites a range before reading it
	postLoadAll int // post loads every range ever written
	nested      int // nested (flat-committed) inner transaction
}

func knobConfig(k Knob) genCfg {
	switch k {
	case KnobClean:
		return genCfg{commitBlock: 25, txBlock: 30, strayFlush: 10, postWrite: 10, postLoadAll: 30}
	case KnobDroppedFlush:
		return genCfg{dropFlush: 35, commitBlock: 15, txBlock: 25, strayFlush: 10, postWrite: 10, postLoadAll: 40}
	case KnobDroppedFence:
		return genCfg{dropFence: 40, commitBlock: 15, txBlock: 25, strayFlush: 10, postWrite: 10, postLoadAll: 40}
	case KnobReadBeforePersist:
		return genCfg{dropFlush: 15, dropFence: 15, trailing: 80, commitBlock: 10, txBlock: 20, postLoadAll: 100}
	case KnobStaleCommit:
		return genCfg{commitBlock: 70, staleCommit: 70, txBlock: 10, postWrite: 5, postLoadAll: 60}
	case KnobMixed:
		return genCfg{dropFlush: 20, dropFence: 20, commitBlock: 25, txBlock: 25, staleCommit: 40,
			trailing: 25, dupAdd: 15, strayFlush: 15, outsideTx: 20, postWrite: 15, postLoadAll: 30, nested: 10}
	default:
		return knobConfig(KnobMixed)
	}
}

// Generated-program address map (all well inside the 4 KiB pool):
//
//	0x000–0x0FF  raw-store region (4 cache lines)
//	0x100–0x1FF  transactional region (4 cache lines)
//	0x200–0x27F  commit-protocol data region (one line per variable)
//	0x280–0x2FF  commit variables (8 bytes each, one line apart)
//
// Raw ranges are small (1–16 bytes) and unaligned on purpose, so stores and
// flushes regularly straddle cache-line boundaries.
const (
	genPoolSize = 4096
	rawBase     = 0x000
	rawSpan     = 4 * 64
	txBase      = 0x100
	txSpan      = 4 * 64
	cvDataBase  = 0x200
	cvVarBase   = 0x280
)

type span struct{ addr, size uint64 }

type cvar struct {
	varAddr  uint64
	dataAddr uint64
	dataSize uint64
}

// Generate produces the deterministic program for (seed, knob). The same
// pair always yields the identical program, op for op.
func Generate(seed int64, knob Knob) Program {
	r := newRng(seed, string(knob))
	cfg := knobConfig(knob)
	p := Program{
		Name:     fmt.Sprintf("fuzz-%s-seed%d", knob, seed),
		PoolSize: genPoolSize,
	}
	g := &gen{r: r, cfg: cfg, p: &p}

	// Commit variables are registered in Setup only: a post-failure
	// registration lands in the shadow of whichever runner post-runs the
	// point, so engine configurations agree only when every variable
	// predates the first failure point (post-failure registrations are
	// then idempotent replays; see Program.Validate).
	if cfg.commitBlock > 0 {
		n := 1 + r.intn(2)
		for i := 0; i < n; i++ {
			v := cvar{
				varAddr:  cvVarBase + uint64(i)*64,
				dataAddr: cvDataBase + uint64(i)*64,
				dataSize: uint64(8 + r.intn(3)*8),
			}
			g.vars = append(g.vars, v)
			g.emitSetup(Op{Kind: OpRegCommitVar, Addr: v.varAddr, Size: 8})
			g.emitSetup(Op{Kind: OpRegCommitRange, Addr: v.varAddr, Size: 8,
				Addr2: v.dataAddr, Size2: v.dataSize})
		}
	}
	// A little persisted pre-existing data.
	for i, n := 0, r.intn(3); i < n; i++ {
		s := g.randRaw()
		g.emitSetup(Op{Kind: OpStore, Addr: s.addr, Size: s.size})
		g.emitSetup(Op{Kind: OpCLWB, Addr: s.addr, Size: s.size})
		g.emitSetup(Op{Kind: OpFence})
		g.written = append(g.written, s)
	}
	if r.pct(20) {
		// Dirt left behind by setup: no failure points are injected during
		// setup, but its unpersisted stores carry into the first one.
		s := g.randRaw()
		g.emitSetup(Op{Kind: OpStore, Addr: s.addr, Size: s.size})
		g.written = append(g.written, s)
	}

	nBlocks := 3 + r.intn(5)
	for b := 0; b < nBlocks; b++ {
		roll := r.intn(100)
		switch {
		case len(g.vars) > 0 && roll < cfg.commitBlock:
			g.commitBlock()
		case roll < cfg.commitBlock+cfg.txBlock:
			g.txBlock()
		default:
			g.rawBlock()
		}
	}
	if r.pct(cfg.trailing) {
		// Trailing stores with no closing barrier: only the final failure
		// point (injected at the end of the RoI) sees them unpersisted.
		for i, n := 0, 1+r.intn(2); i < n; i++ {
			s := g.randRaw()
			g.emitPre(Op{Kind: OpStore, Addr: s.addr, Size: s.size})
			g.written = append(g.written, s)
		}
	}

	g.genPost()
	return p
}

type gen struct {
	r         *rng
	cfg       genCfg
	p         *Program
	vars      []cvar
	written   []span // every range stored so far (setup + pre)
	redirtied []span // spans re-stored after their writeback (still dirty)
}

func (g *gen) emitSetup(op Op) { g.p.Setup = append(g.p.Setup, op) }
func (g *gen) emitPre(op Op)   { g.p.Pre = append(g.p.Pre, op) }
func (g *gen) emitPost(op Op)  { g.p.Post = append(g.p.Post, op) }

func (g *gen) randRaw() span {
	size := uint64(1 + g.r.intn(16))
	addr := rawBase + uint64(g.r.intn(int(rawSpan-size)+1))
	return span{addr, size}
}

func (g *gen) randTx() span {
	size := uint64(8 + g.r.intn(25))
	addr := txBase + uint64(g.r.intn(int(txSpan-size)+1))
	return span{addr, size}
}

// rawBlock emits 1–3 stores, their writebacks (each possibly dropped), an
// optional stray flush, and a closing fence (possibly dropped). With some
// probability it re-dirties part of a just-written-back span before the
// fence — the classic update-after-writeback mistake, which demotes a
// uniformly writeback-pending cache line to mixed state — and a later
// block then writes the still-dirty span back again (a useful flush,
// unless a fence wrongly persisted the re-modified bytes).
func (g *gen) rawBlock() {
	if len(g.redirtied) > 0 && g.r.pct(50) {
		i := g.r.intn(len(g.redirtied))
		s := g.redirtied[i]
		g.redirtied = append(g.redirtied[:i], g.redirtied[i+1:]...)
		g.emitPre(Op{Kind: OpCLWB, Addr: s.addr, Size: s.size})
	}
	n := 1 + g.r.intn(3)
	var stores []span
	for i := 0; i < n; i++ {
		s := g.randRaw()
		kind := OpStore
		if g.r.pct(15) {
			kind = OpNTStore // writeback-pending immediately; no flush needed
		}
		g.emitPre(Op{Kind: kind, Addr: s.addr, Size: s.size})
		g.written = append(g.written, s)
		if kind == OpStore {
			stores = append(stores, s)
		}
	}
	var flushed []span
	for _, s := range stores {
		if g.r.pct(g.cfg.dropFlush) {
			continue
		}
		kind := OpCLWB
		if g.r.pct(20) {
			kind = OpCLFlush
		}
		g.emitPre(Op{Kind: kind, Addr: s.addr, Size: s.size})
		flushed = append(flushed, s)
	}
	if len(flushed) > 0 && g.r.pct(25) {
		f := flushed[g.r.intn(len(flushed))]
		rd := span{f.addr, uint64(1 + g.r.intn(int(f.size)))}
		g.emitPre(Op{Kind: OpStore, Addr: rd.addr, Size: rd.size})
		g.written = append(g.written, rd)
		g.redirtied = append(g.redirtied, rd)
	}
	if g.r.pct(g.cfg.strayFlush) {
		s := g.randRaw()
		g.emitPre(Op{Kind: OpCLWB, Addr: s.addr, Size: s.size})
	}
	if !g.r.pct(g.cfg.dropFence) {
		g.emitPre(Op{Kind: OpFence})
	}
}

// commitBlock emits one round of a commit-variable protocol. Variant 0 is
// the correct two-barrier form (persist the data, then write and persist
// the commit variable); the others are the stale-commit mistakes of §3.2
// and Fig. 11.
func (g *gen) commitBlock() {
	v := g.vars[g.r.intn(len(g.vars))]
	size := uint64(1 + g.r.intn(int(v.dataSize)))
	off := uint64(g.r.intn(int(v.dataSize-size) + 1))
	data := span{v.dataAddr + off, size}
	g.written = append(g.written, data, span{v.varAddr, 8})

	variant := 0
	if g.r.pct(g.cfg.staleCommit) {
		variant = 1 + g.r.intn(4)
	}
	st := func(s span) Op { return Op{Kind: OpStore, Addr: s.addr, Size: s.size} }
	wb := func(s span) Op { return Op{Kind: OpCLWB, Addr: s.addr, Size: s.size} }
	cv := span{v.varAddr, 8}
	switch variant {
	case 0: // correct: persist data, then persist the commit write
		g.emitPre(st(data))
		g.emitPre(wb(data))
		g.emitPre(Op{Kind: OpFence})
		g.emitPre(st(cv))
		g.emitPre(wb(cv))
		g.emitPre(Op{Kind: OpFence})
	case 1: // commit write never persisted
		g.emitPre(st(data))
		g.emitPre(wb(data))
		g.emitPre(Op{Kind: OpFence})
		g.emitPre(st(cv))
	case 2: // data and commit write persisted by the same barrier (Fig. 11 F2)
		g.emitPre(st(data))
		g.emitPre(st(cv))
		g.emitPre(wb(data))
		g.emitPre(wb(cv))
		g.emitPre(Op{Kind: OpFence})
	case 3: // data modified outside the commit window
		g.emitPre(st(cv))
		g.emitPre(wb(cv))
		g.emitPre(Op{Kind: OpFence})
		g.emitPre(st(data))
		g.emitPre(wb(data))
		g.emitPre(Op{Kind: OpFence})
	case 4: // data never written back at all (a race, not a semantic bug)
		g.emitPre(st(data))
		g.emitPre(st(cv))
		g.emitPre(wb(cv))
		g.emitPre(Op{Kind: OpFence})
	}
}

// txBlock emits one undo-log transaction: TX_ADD, stores into the added
// range, commit (or abort), and the pmobj-style commit writeback (flush the
// added lines, fence) — each piece subject to the knob's mistakes.
func (g *gen) txBlock() {
	added := g.randTx()
	g.emitPre(Op{Kind: OpTxBegin})
	g.emitPre(Op{Kind: OpTxAdd, Addr: added.addr, Size: added.size})
	n := 1 + g.r.intn(3)
	for i := 0; i < n; i++ {
		size := uint64(1 + g.r.intn(int(added.size)))
		off := uint64(g.r.intn(int(added.size-size) + 1))
		s := span{added.addr + off, size}
		g.emitPre(Op{Kind: OpStore, Addr: s.addr, Size: s.size})
		g.written = append(g.written, s)
	}
	if g.r.pct(g.cfg.dupAdd) {
		g.emitPre(Op{Kind: OpTxAdd, Addr: added.addr, Size: added.size})
	}
	if g.r.pct(g.cfg.nested) {
		inner := g.randTx()
		g.emitPre(Op{Kind: OpTxBegin})
		g.emitPre(Op{Kind: OpTxAdd, Addr: inner.addr, Size: inner.size})
		g.emitPre(Op{Kind: OpStore, Addr: inner.addr, Size: 8})
		g.written = append(g.written, span{inner.addr, 8})
		g.emitPre(Op{Kind: OpTxCommit})
	}
	var outside *span
	if g.r.pct(g.cfg.outsideTx) {
		// A store the transaction did not TX_ADD: unprotected however the
		// transaction ends.
		s := g.randTx()
		g.emitPre(Op{Kind: OpStore, Addr: s.addr, Size: s.size})
		g.written = append(g.written, s)
		outside = &s
	}
	aborted := g.r.pct(12)
	if aborted {
		g.emitPre(Op{Kind: OpTxAbort})
		if g.r.pct(50) {
			g.emitPre(Op{Kind: OpFence})
		}
		return
	}
	g.emitPre(Op{Kind: OpTxCommit})
	if !g.r.pct(g.cfg.dropFlush) {
		g.emitPre(Op{Kind: OpCLWB, Addr: added.addr, Size: added.size})
		if outside != nil && g.r.pct(50) {
			g.emitPre(Op{Kind: OpCLWB, Addr: outside.addr, Size: outside.size})
		}
		if !g.r.pct(g.cfg.dropFence) {
			g.emitPre(Op{Kind: OpFence})
		}
	}
}

// genPost emits the post-failure stage: mostly loads of previously written
// ranges (every one a classification decision), plus overwrite-then-read
// sequences, loads of never-written memory, idempotent commit-variable
// re-registrations, and the occasional flush/fence noise the checker must
// ignore.
func (g *gen) genPost() {
	loadOf := func(s span) Op { return Op{Kind: OpLoad, Addr: s.addr, Size: s.size} }
	pick := func() span {
		if len(g.written) == 0 {
			return span{rawBase, 8}
		}
		return g.written[g.r.intn(len(g.written))]
	}
	n := 3 + g.r.intn(6)
	for i := 0; i < n; i++ {
		switch roll := g.r.intn(100); {
		case roll < g.cfg.postWrite:
			s := pick()
			g.emitPost(Op{Kind: OpStore, Addr: s.addr, Size: s.size})
			g.emitPost(loadOf(s))
		case roll < g.cfg.postWrite+10:
			// Never-written (or only partially written) memory: reads of
			// unmodified bytes are always consistent.
			size := uint64(1 + g.r.intn(24))
			addr := uint64(g.r.intn(int(0x2C0 - size)))
			g.emitPost(Op{Kind: OpLoad, Addr: addr, Size: size})
		case roll < g.cfg.postWrite+18 && len(g.vars) > 0:
			// Recovery re-registers its commit variables (idempotent).
			v := g.vars[g.r.intn(len(g.vars))]
			g.emitPost(Op{Kind: OpRegCommitVar, Addr: v.varAddr, Size: 8})
			g.emitPost(Op{Kind: OpRegCommitRange, Addr: v.varAddr, Size: 8,
				Addr2: v.dataAddr, Size2: v.dataSize})
			g.emitPost(loadOf(span{v.varAddr, 8}))
		case roll < g.cfg.postWrite+23:
			// Flush/fence noise: carries no checking semantics post-failure.
			s := pick()
			g.emitPost(Op{Kind: OpCLWB, Addr: s.addr, Size: s.size})
			g.emitPost(Op{Kind: OpFence})
		default:
			g.emitPost(loadOf(pick()))
		}
	}
	if g.r.pct(g.cfg.postLoadAll) {
		for _, s := range g.written {
			g.emitPost(loadOf(s))
		}
	}
}
