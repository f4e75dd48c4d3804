// Package shadow implements XFDetector's shadow persistent memory (§5.4 of
// the paper): a per-byte model of PM status that the detection backend
// updates while replaying the pre-failure trace and queries while checking
// the post-failure trace.
//
// For each PM byte the shadow records:
//
//   - the persistence state of Fig. 9: Unmodified → (WRITE) → Modified →
//     (CLWB) → WritebackPending → (SFENCE) → Persisted, with the redundant
//     transitions (flushing unmodified or already-persisted data) reported
//     as performance bugs;
//   - the epoch of its last write and the epoch at which it last became
//     persisted, where the global timestamp ("epoch") increments after each
//     ordering point, exactly like the paper's global timestamp;
//   - the source location of its last writer, for bug reports;
//   - whether it is protected by a transaction's undo log (PMDK-style
//     TX_ADD semantics, §5.4: "objects that have been added to the
//     transaction are regarded as consistent").
//
// The metadata lives in lazily allocated 4 KiB shadow pages (page.go), so
// memory is proportional to the bytes the execution touches rather than to
// the pool size, and the hot FSM transitions fast-path uniform cache lines
// and pages with range fills instead of per-byte loops. A shadow can be
// forked copy-on-write (Fork in page.go).
//
// Commit variables (§3.2) are registered through RegCommitVar /
// RegCommitRange trace entries; see commit.go for the Eq. 3 consistency
// rule. Post-failure reads are classified by a PostChecker; see
// postcheck.go.
package shadow

import (
	"fmt"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// PersistState is the per-byte persistence FSM state of Fig. 9.
type PersistState uint8

const (
	// Unmodified: never written during the traced execution.
	Unmodified PersistState = iota
	// Modified: written but not yet written back; lost on failure.
	Modified
	// WritebackPending: written back (CLWB/CLFLUSH/NT store) but not yet
	// fenced; still not guaranteed persistent.
	WritebackPending
	// Persisted: written back and fenced; guaranteed to survive a failure.
	Persisted
)

// String returns the single-letter code the paper uses (U/M/W/P).
func (s PersistState) String() string {
	switch s {
	case Unmodified:
		return "U"
	case Modified:
		return "M"
	case WritebackPending:
		return "W"
	case Persisted:
		return "P"
	}
	return fmt.Sprintf("PersistState(%d)", uint8(s))
}

// PerfBugKind classifies the performance bugs XFDetector reports while
// updating the shadow PM (§5.4, yellow edges of Fig. 9).
type PerfBugKind uint8

const (
	// RedundantFlush is a writeback covering no modified data (flushing
	// unmodified, already-pending, or already-persisted lines).
	RedundantFlush PerfBugKind = iota
	// DuplicateTxAdd is a TX_ADD fully covered by an earlier TX_ADD of the
	// same transaction.
	DuplicateTxAdd
)

// String names the performance bug kind.
func (k PerfBugKind) String() string {
	switch k {
	case RedundantFlush:
		return "redundant-writeback"
	case DuplicateTxAdd:
		return "duplicate-tx-add"
	}
	return fmt.Sprintf("PerfBugKind(%d)", uint8(k))
}

// PerfBug is one performance-bug observation.
type PerfBug struct {
	Kind PerfBugKind
	Addr uint64
	Size uint64
	IP   string
}

// PM is the shadow persistent memory for one pool.
type PM struct {
	size uint64
	// forked marks a copy-on-write fork (Fork): it shares pages whose
	// fingerprint caches belong to the canonical shadow, so it neither
	// reads nor maintains them.
	forked bool

	// pages holds the lazily allocated 4 KiB shadow pages, nil where the
	// pool was never touched (all bytes Unmodified, writeEpoch 0). See
	// page.go. slots is the bitmap of the non-nil entries, in ascending
	// slot order (setPage); a fork leaves it nil, since it never allocates
	// a page or computes a fingerprint.
	pages []*page
	slots []uint64

	writers   []string // interned writer locations
	writerIDs map[string]uint32

	// pendingLines maps each cache-line start address with
	// writeback-pending bytes to whether the whole line was uniformly
	// WritebackPending when marked ("full"). Full lines take the fence's
	// range-fill fast path; a store that re-modifies bytes of a pending
	// line demotes it to the per-byte path (demotePendingLines).
	pendingLines map[uint64]bool
	clock        uint32 // global timestamp; increments after each SFence

	txDepth int
	txGen   uint32
	// curTx accumulates the ranges TX_ADDed (or transactionally
	// allocated) by the open transaction. Undo-log protection lasts only
	// until commit or abort: afterwards the data's safety rests on the
	// library actually having written it back, so an unflushed commit is
	// detectable as a race.
	curTx []txRange

	commitVars []*commitVar
	assocs     []assoc

	onPerf func(PerfBug) // optional performance-bug callback

	// postGen is the post-failure check generation counter (postcheck.go);
	// the per-byte scratch lives in the pages.
	postGen uint32

	// stats is the run-wide shadow memory accounting, shared with forks.
	stats *Stats
}

// NewPM returns a paged shadow for a pool of the given size with
// the clock at epoch 1 (epoch 0 is reserved for "never").
func NewPM(size uint64) *PM {
	return &PM{
		size:         size,
		pages:        make([]*page, numPages(size)),
		slots:        make([]uint64, (numPages(size)+63)/64),
		writerIDs:    make(map[string]uint32),
		pendingLines: make(map[uint64]bool),
		clock:        1,
		stats:        &Stats{},
	}
}

// Size returns the shadowed pool size.
func (s *PM) Size() uint64 { return s.size }

// Clock returns the current global timestamp.
func (s *PM) Clock() uint32 { return s.clock }

// SetPerfBugHandler installs the callback invoked for each performance-bug
// observation. A nil handler disables reporting.
func (s *PM) SetPerfBugHandler(f func(PerfBug)) { s.onPerf = f }

// State returns the persistence state of the byte at addr.
func (s *PM) State(addr uint64) PersistState {
	if pg := s.pages[addr>>pageShift]; pg != nil {
		return pg.state[addr&pageMask]
	}
	return Unmodified
}

// WriteEpoch returns the epoch of the last write to addr (0 if never).
func (s *PM) WriteEpoch(addr uint64) uint32 {
	if pg := s.pages[addr>>pageShift]; pg != nil {
		return pg.writeEpoch[addr&pageMask]
	}
	return 0
}

// PersistEpoch returns the epoch at which addr last became persisted.
func (s *PM) PersistEpoch(addr uint64) uint32 {
	if pg := s.pages[addr>>pageShift]; pg != nil {
		return pg.persistEpoch[addr&pageMask]
	}
	return 0
}

// TxProtected reports whether addr is covered by undo-log protection.
func (s *PM) TxProtected(addr uint64) bool {
	if pg := s.pages[addr>>pageShift]; pg != nil {
		return pg.txSafe[addr&pageMask]
	}
	return false
}

// WriterIP returns the source location of the last writer of addr.
func (s *PM) WriterIP(addr uint64) string {
	var i uint32
	if pg := s.pages[addr>>pageShift]; pg != nil {
		i = pg.writerIdx[addr&pageMask]
	}
	if i != 0 {
		return s.writers[i-1]
	}
	return ""
}

func (s *PM) internWriter(ip string) uint32 {
	if ip == "" {
		return 0
	}
	if id, ok := s.writerIDs[ip]; ok {
		return id
	}
	s.writers = append(s.writers, ip)
	id := uint32(len(s.writers)) // 1-based
	s.writerIDs[ip] = id
	return id
}

func (s *PM) clip(addr, size uint64) (uint64, uint64) {
	if addr >= s.size {
		return s.size, s.size
	}
	end := addr + size
	if end > s.size || end < addr {
		end = s.size
	}
	return addr, end
}

// Apply updates the shadow with one pre-failure trace entry. Entries whose
// kinds carry no persistence meaning (reads, RoI markers, function
// boundaries) are ignored.
func (s *PM) Apply(e trace.Entry) {
	switch e.Kind {
	case trace.Write, trace.CommitVarWrite:
		s.applyWrite(e.Addr, e.Size, e.IP)
	case trace.NTStore:
		s.applyNTStore(e.Addr, e.Size, e.IP)
	case trace.CLWB, trace.CLFlush:
		s.applyFlush(e.Addr, e.Size, e.IP)
	case trace.SFence:
		s.applyFence()
	case trace.TxBegin:
		s.txDepth++
		if s.txDepth == 1 {
			s.txGen++
		}
	case trace.TxCommit, trace.TxAbort:
		if s.txDepth > 0 {
			s.txDepth--
		}
		if s.txDepth == 0 {
			s.endTxProtection()
		}
	case trace.TxAdd:
		s.applyTxAdd(e.Addr, e.Size, e.IP, true)
	case trace.TxAlloc:
		// Transactionally allocated memory is rolled back (freed) on
		// abort, so, like TX_ADDed data, it is recoverable. It does not
		// count toward duplicate-TX_ADD detection: explicitly adding a
		// freshly allocated object afterwards is common, correct PM code.
		s.applyTxAdd(e.Addr, e.Size, e.IP, false)
	case trace.TxFree:
		// The freed range is no longer reachable through consistent
		// pointers after commit; nothing to track.
	case trace.AtomicAlloc:
		s.applyAtomicAlloc(e.Addr, e.Size, e.IP)
	case trace.RegCommitVar:
		s.registerCommitVar(e.Addr, e.Size)
	case trace.RegCommitRange:
		s.registerCommitRange(e.Addr, e.Size, e.Addr2, e.Size2)
	}
}

// storeRange applies a store's per-byte effects page by page: the state,
// epoch, and writer arrays take unconditional range fills, and the txSafe
// voiding scan runs only on pages that may hold protected bytes.
func (s *PM) storeRange(addr, end uint64, w uint32, inTx bool, st PersistState) {
	for b := addr; b < end; {
		pi, lo, hi, next := pageSpan(b, end)
		pg := s.writablePage(pi)
		pg.invalidateLines(lo, hi)
		fillState(pg.state[lo:hi], st)
		fillU32(pg.writeEpoch[lo:hi], s.clock)
		fillU32(pg.writerIdx[lo:hi], w)
		if pg.anyTxSafe {
			for i := lo; i < hi; i++ {
				if pg.txSafe[i] && (!inTx || pg.txAddGen[i] != s.txGen) {
					// A write outside any transaction, or inside a
					// transaction that did not TX_ADD this byte, voids the
					// protection.
					pg.txSafe[i] = false
				}
			}
		}
		b = next
	}
}

// demotePendingLines drops the fence fast path for lines a store just made
// non-uniform: a full (all-WritebackPending) line that now contains
// Modified bytes must take the per-byte fence path again.
func (s *PM) demotePendingLines(addr, end uint64) {
	if len(s.pendingLines) == 0 {
		return
	}
	for line := pmem.LineDown(addr); line < end; line += pmem.CacheLineSize {
		if s.pendingLines[line] {
			s.pendingLines[line] = false
		}
	}
}

func (s *PM) applyWrite(addr, size uint64, ip string) {
	addr, end := s.clip(addr, size)
	if addr == end {
		return
	}
	w := s.internWriter(ip)
	inTx := s.txDepth > 0
	s.storeRange(addr, end, w, inTx, Modified)
	s.demotePendingLines(addr, end)
	s.noteCommitWrites(addr, end)
}

func (s *PM) applyNTStore(addr, size uint64, ip string) {
	addr, end := s.clip(addr, size)
	if addr == end {
		return
	}
	w := s.internWriter(ip)
	inTx := s.txDepth > 0
	s.storeRange(addr, end, w, inTx, WritebackPending)
	for line := pmem.LineDown(addr); line < end; line += pmem.CacheLineSize {
		lineEnd := line + pmem.CacheLineSize
		if lineEnd > s.size {
			lineEnd = s.size
		}
		if addr <= line && end >= lineEnd {
			// The store covers the whole line, so every byte of it is
			// now WritebackPending: eligible for the fence fast path.
			// (An earlier partial marking is superseded.)
			s.pendingLines[line] = true
		} else if _, ok := s.pendingLines[line]; !ok {
			// Partial store: bytes outside it may be in any state.
			// Conservatively take the per-byte fence path — unless the
			// line is already known fully pending, which a partial NT
			// store preserves (its bytes end up WritebackPending too).
			s.pendingLines[line] = false
		}
	}
	s.noteCommitWrites(addr, end)
}

func (s *PM) applyFlush(addr, size uint64, ip string) {
	start := pmem.LineDown(addr)
	limit := pmem.LineUp(addr + size)
	start, limit = s.clip(start, limit-start)
	if !s.flushLines(start, limit) && s.onPerf != nil {
		s.onPerf(PerfBug{Kind: RedundantFlush, Addr: addr, Size: size, IP: ip})
	}
}

// flushLines transitions Modified bytes of the flushed lines to
// WritebackPending. Pages never touched contain nothing modified and are
// skipped whole; lines that end up uniformly WritebackPending are marked
// full for the fence fast path. It reports whether any byte was Modified.
func (s *PM) flushLines(start, limit uint64) (useful bool) {
	for line := start; line < limit; line += pmem.CacheLineSize {
		lineEnd := line + pmem.CacheLineSize
		if lineEnd > s.size {
			lineEnd = s.size
		}
		pi := int(line >> pageShift) // a 64 B line never spans 4 KiB pages
		pg := s.pages[pi]
		if pg == nil {
			continue
		}
		lo := int(line & pageMask)
		hi := lo + int(lineEnd-line)
		nM, nOther := 0, 0
		for i := lo; i < hi; i++ {
			switch pg.state[i] {
			case Modified:
				nM++
			case WritebackPending:
			default:
				nOther++
			}
		}
		if nM == 0 {
			continue
		}
		useful = true
		pg = s.writablePage(pi)
		pg.invalidateLines(lo, hi)
		if unsoundFlushForTest {
			// Deliberately wrong (see mutation.go): jump straight to
			// Persisted without waiting for the fence.
			for i := lo; i < hi; i++ {
				if pg.state[i] == Modified {
					pg.state[i] = Persisted
					pg.persistEpoch[i] = s.clock
				}
			}
			continue
		}
		if nOther == 0 {
			// Only Modified and WritebackPending bytes: after the
			// transition the line is uniformly pending.
			fillState(pg.state[lo:hi], WritebackPending)
			s.pendingLines[line] = true
		} else {
			for i := lo; i < hi; i++ {
				if pg.state[i] == Modified {
					pg.state[i] = WritebackPending
				}
			}
			s.pendingLines[line] = false
		}
	}
	return useful
}

func (s *PM) applyFence() {
	for line, full := range s.pendingLines {
		lineEnd := line + pmem.CacheLineSize
		if lineEnd > s.size {
			lineEnd = s.size
		}
		pi := int(line >> pageShift)
		if s.pages[pi] == nil {
			continue
		}
		pg := s.writablePage(pi)
		if staleFenceFingerprintForTest {
			// Deliberately wrong (see mutation.go): the fence's fill
			// "forgets" to drop this line's fingerprint cache, and the
			// page ignores all invalidation from here on.
			pg.fpStuck = true
		}
		lo := int(line & pageMask)
		hi := lo + int(lineEnd-line)
		pg.invalidateLines(lo, hi)
		if full || lostRangeBatchForTest {
			// Fast path: the whole line is WritebackPending, so the
			// transition is one range fill per array. The mutation
			// switch (mutation.go) deliberately takes it for demoted
			// mixed-state lines too, spuriously persisting their
			// re-modified bytes.
			fillState(pg.state[lo:hi], Persisted)
			fillU32(pg.persistEpoch[lo:hi], s.clock)
			continue
		}
		for i := lo; i < hi; i++ {
			if pg.state[i] == WritebackPending {
				pg.state[i] = Persisted
				pg.persistEpoch[i] = s.clock
			}
		}
	}
	clear(s.pendingLines)
	s.noteCommitPersists()
	s.clock++
}

func (s *PM) applyTxAdd(addr, size uint64, ip string, explicit bool) {
	addr, end := s.clip(addr, size)
	if addr == end {
		return
	}
	if s.txDepth == 0 {
		// A TX_ADD outside a transaction protects nothing; ignore. The
		// pmobj library reports this as a usage error before it gets here.
		return
	}
	duplicate := explicit
	for b := addr; b < end; {
		pi, lo, hi, next := pageSpan(b, end)
		pg := s.writablePage(pi)
		pg.invalidateLines(lo, hi)
		pg.anyTxSafe = true
		for i := lo; i < hi; i++ {
			if pg.txExplicit[i] != s.txGen {
				duplicate = false
			}
			pg.txAddGen[i] = s.txGen
			if explicit {
				pg.txExplicit[i] = s.txGen
			}
			pg.txSafe[i] = true
		}
		b = next
	}
	s.curTx = append(s.curTx, txRange{addr, end - addr})
	if duplicate && s.onPerf != nil {
		s.onPerf(PerfBug{Kind: DuplicateTxAdd, Addr: addr, Size: size, IP: ip})
	}
}

type txRange struct{ addr, size uint64 }

// endTxProtection runs when the outermost transaction commits or aborts:
// the undo log no longer covers its ranges, so their post-failure safety
// falls back to the persistence state (the commit's writeback).
func (s *PM) endTxProtection() {
	for _, r := range s.curTx {
		for b := r.addr; b < r.addr+r.size; {
			pi, lo, hi, next := pageSpan(b, r.addr+r.size)
			pg := s.writablePage(pi)
			pg.invalidateLines(lo, hi)
			fillBool(pg.txSafe[lo:hi], false)
			b = next
			// anyTxSafe stays set: the hint is conservative.
		}
	}
	s.curTx = s.curTx[:0]
}

func (s *PM) applyAtomicAlloc(addr, size uint64, ip string) {
	addr, end := s.clip(addr, size)
	if addr == end {
		return
	}
	w := s.internWriter(ip)
	// Freshly allocated memory has indeterminate content: with a different
	// allocator it may not be zeroed (paper Bug 2), so it is modified-but-
	// not-guaranteed-persisted until the program initializes and persists
	// it. storeRange with inTx=false also voids any undo-log protection.
	s.storeRange(addr, end, w, false, Modified)
	s.demotePendingLines(addr, end)
}
