package shadow

// Sparse paged shadow representation.
//
// The shadow PM stores its per-byte metadata in lazily allocated
// 4 KiB pages (struct-of-arrays per page), so shadow memory is proportional
// to the bytes the traced execution actually touches, not to the pool size
// — the standard sanitizer shadow-memory layout. A page that was never
// allocated means every byte of its range is Unmodified with writeEpoch 0,
// which the accessors and the post-failure checker exploit to skip whole
// pages.
//
// Each page also caches crash-state fingerprint hashes for its 64 cache
// lines (fingerprint.go); mutations invalidate exactly the lines they
// touch, and an allocation bitmap (PM.slots) lets a fingerprint visit only
// allocated slots.
//
// Pages are reference-counted so that a copy-on-write fork (Fork) can
// share every page with the canonical shadow, whichever side writes first
// privatizing it (writablePage); nothing else shares a page. Detection
// does not fork — each sibling of a parallel run owns its shadow — but
// perfbench times Fork as a shadow layer. The thread
// advancing the canonical shadow is its only writer and each fork is
// written only by the goroutine that owns it, so the only cross-thread
// traffic on a shared page is the refcount, which is manipulated
// atomically; the page arrays themselves are immutable while shared. The
// fingerprint cache is the one part of a shared page that changes: it
// belongs to the canonical thread, which alone reads and writes it, and
// forks never touch it.

import (
	"sync/atomic"
	"unsafe"
)

const (
	// pageShift/pageBytes mirror pmem's 4 KiB snapshot-page granularity.
	pageShift = 12
	pageBytes = 1 << pageShift
	pageMask  = pageBytes - 1

	// lineShift/lineBytes are the 64-byte cache-line granularity of the
	// fingerprint cache; pageLines lines make up one page.
	lineShift = 6
	lineBytes = 1 << lineShift
	pageLines = pageBytes / lineBytes
)

// page holds the per-byte shadow metadata of one 4 KiB slab of the pool.
type page struct {
	// refs counts the shadow tables referencing this page: the canonical
	// shadow plus any live forks. A page with refs > 1 is immutable; a
	// holder that needs to write clones it first (writablePage) and drops
	// its reference to the shared original.
	refs int32

	state        [pageBytes]PersistState
	writeEpoch   [pageBytes]uint32
	persistEpoch [pageBytes]uint32
	writerIdx    [pageBytes]uint32
	txSafe       [pageBytes]bool
	txAddGen     [pageBytes]uint32
	txExplicit   [pageBytes]uint32
	postWritten  [pageBytes]uint32
	checked      [pageBytes]uint32

	// anyTxSafe is a conservative hint: false guarantees no byte of the
	// page has undo-log protection, which lets the store fast path skip
	// the per-byte txSafe scan. Set by applyTxAdd and never cleared.
	anyTxSafe bool

	// lineHash caches the crash-state hash of each 64-byte line
	// (fingerprint.go) while its bit in lineValid is set; every mutation
	// path clears the bits of the lines it touches. fpHash, the fold of
	// the 64 line hashes, is cached exactly while every bit is set. Only
	// the thread advancing the canonical shadow reads or writes these
	// fields: forks neither consult nor maintain them, and a fork's COW
	// clone starts with an empty cache. fpStuck exists solely for the
	// stale-fingerprint mutant (mutation.go): a stuck page ignores
	// invalidation.
	lineHash  [pageLines]uint64
	lineValid uint64
	fpHash    uint64
	fpStuck   bool
}

// pageFootprint is the accounted size of one shadow page.
const pageFootprint = int64(unsafe.Sizeof(page{}))

func numPages(size uint64) int { return int((size + pageBytes - 1) >> pageShift) }

// Stats aggregates shadow memory accounting for one shadow PM. The
// canonical shadow and every fork taken from it share one Stats, so the
// peak covers all of their concurrently live shadow state.
type Stats struct {
	live  atomic.Int64
	peak  atomic.Int64
	pages atomic.Int64 // cumulative pages allocated, including COW clones
}

func (st *Stats) grow(n int64) {
	v := st.live.Add(n)
	for {
		p := st.peak.Load()
		if v <= p || st.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func (st *Stats) shrink(n int64) { st.live.Add(-n) }

// MemStats reports the peak number of live shadow bytes over the run —
// canonical shadow plus all concurrently live forks — and the cumulative
// number of 4 KiB shadow pages allocated (lazy allocations plus
// copy-on-write clones).
func (s *PM) MemStats() (peakBytes, pagesAllocated uint64) {
	return uint64(s.stats.peak.Load()), uint64(s.stats.pages.Load())
}

func (s *PM) newPage() *page {
	pg := &page{refs: 1}
	s.stats.pages.Add(1)
	s.stats.grow(pageFootprint)
	return pg
}

func (s *PM) dropPageRef(pg *page) {
	if atomic.AddInt32(&pg.refs, -1) == 0 {
		s.stats.shrink(pageFootprint)
	}
}

// writablePage returns the page at index pi ready for mutation: allocated
// if the slab was never touched, privatized (cloned) if it is shared with
// a fork.
func (s *PM) writablePage(pi int) *page {
	pg := s.pages[pi]
	if pg == nil {
		pg = s.newPage()
		s.setPage(pi, pg)
		return pg
	}
	if atomic.LoadInt32(&pg.refs) > 1 {
		np := s.newPage()
		np.state = pg.state
		np.writeEpoch = pg.writeEpoch
		np.persistEpoch = pg.persistEpoch
		np.writerIdx = pg.writerIdx
		np.txSafe = pg.txSafe
		np.txAddGen = pg.txAddGen
		np.txExplicit = pg.txExplicit
		np.postWritten = pg.postWritten
		np.checked = pg.checked
		np.anyTxSafe = pg.anyTxSafe
		if !s.forked {
			// The canonical shadow owns the fingerprint cache of its
			// shared pages, so its clone keeps every line hash; the caller
			// then invalidates only the lines it mutates. A fork's clone
			// starts empty: forks never read the cache fields, which the
			// canonical thread may be writing concurrently.
			np.lineHash = pg.lineHash
			np.lineValid = pg.lineValid
			np.fpHash = pg.fpHash
		}
		// The mutant stickiness carries over.
		np.fpStuck = pg.fpStuck
		s.pages[pi] = np
		s.dropPageRef(pg)
		return np
	}
	return pg
}

// setPage installs pg in the never-allocated slot pi and records the slot
// in the allocation bitmap CrashFingerprint walks.
func (s *PM) setPage(pi int, pg *page) {
	s.pages[pi] = pg
	s.slots[pi>>6] |= 1 << (pi & 63)
}

// pageSpan splits [b, end) at b's page boundary: it returns the page
// index, the intra-page range [lo, hi) the span covers, and the first
// address past the span.
func pageSpan(b, end uint64) (pi, lo, hi int, next uint64) {
	pi = int(b >> pageShift)
	lo = int(b & pageMask)
	next = (uint64(pi) + 1) << pageShift
	if end < next {
		next = end
	}
	hi = lo + int(next-b)
	return
}

// Fork captures an immutable copy-on-write snapshot of the shadow at its
// current trace position. The fork shares all shadow pages with its parent
// (refcounted; either side privatizes a page before writing it), deep-
// copies the commit-variable records — the parent keeps mutating those in
// place at every store and fence — and shares the interned-writer table
// under a stable-prefix aliasing contract: the parent only appends to it.
// Fork must be called from the thread advancing the shadow; handing the
// fork to another goroutine (e.g. through a channel) establishes the
// ordering its reads rely on.
//
// A fork supports the post-failure check surface — BeginPostCheck,
// PostChecker, the accessors, and Apply of RegCommitVar/RegCommitRange —
// but must not replay pre-failure entries. Call Release when done.
func (s *PM) Fork() *PM {
	f := &PM{
		size:    s.size,
		forked:  true,
		clock:   s.clock,
		txDepth: s.txDepth,
		txGen:   s.txGen,
		postGen: s.postGen,
		writers: s.writers,
		assocs:  s.assocs[:len(s.assocs):len(s.assocs)],
		stats:   s.stats,
	}
	f.curTx = append([]txRange(nil), s.curTx...)
	f.commitVars = make([]*commitVar, len(s.commitVars))
	for i, cv := range s.commitVars {
		c := *cv
		f.commitVars[i] = &c
	}
	f.pages = make([]*page, len(s.pages))
	copy(f.pages, s.pages)
	for _, pg := range f.pages {
		if pg != nil {
			atomic.AddInt32(&pg.refs, 1)
		}
	}
	return f
}

// Release returns a fork's shadow pages to the accounting; pages whose
// last reference this was stop counting toward live shadow bytes. The fork
// must not be used afterwards.
func (s *PM) Release() {
	for i, pg := range s.pages {
		if pg != nil {
			s.dropPageRef(pg)
			s.pages[i] = nil
		}
	}
}

func fillState(a []PersistState, v PersistState) {
	for i := range a {
		a[i] = v
	}
}

func fillU32(a []uint32, v uint32) {
	for i := range a {
		a[i] = v
	}
}

func fillBool(a []bool, v bool) {
	for i := range a {
		a[i] = v
	}
}
