package pmem

// Incremental snapshots and copy-on-write post-failure views.
//
// The detection loop of Fig. 8 copies the PM image at every failure point
// and then copies it again to build the post-failure pool. Both copies were
// O(PoolSize) even when the workload dirtied a few KB between ordering
// points, which made the per-failure-point cost grow with the pool rather
// than with the work done (§6.2.1 measures exactly this machinery). The
// scheme here makes the first copy O(bytes dirtied since the last failure
// point) and the second O(pool pages / pointer), preserving footnote-3
// semantics exactly: a Snapshot always reflects the full image including
// non-persisted updates.
//
//   - Root pools (New, FromImage) keep a flat buffer plus a page-granularity
//     dirty bitmap. Every store path marks the pages it touches inside the
//     same critical section that mutates the buffer, so a concurrent
//     TakeSnapshot (also under p.mu) observes buffer bytes and dirty bits
//     atomically.
//   - TakeSnapshot reuses the pages of the previous snapshot (the "base")
//     for every clean page and clones only dirty pages. Snapshot pages are
//     immutable once published: the root pool writes exclusively to its own
//     flat buffer, and views clone a page before the first write.
//   - FromSnapshot builds a post-failure pool as a copy-on-write view: it
//     shares the snapshot's pages and privatizes a page on first write. A
//     retried post-run attempt simply builds a fresh view — dropping the
//     overlay — instead of re-copying the image.
//
// COW aliasing contract: Snapshot.pages may be shared between the snapshot,
// the root pool's base, later snapshots, and post-failure views — among
// them the view of an abandoned timed post-run whose goroutine is still
// unwinding while the pre-failure stage moves on. All of them treat shared
// pages as read-only; the only writers are (a) the root pool, into its
// private flat buffer, and (b) a view, into pages it has privatized under
// its own mutex. Sharing is safe because the shared region is never
// mutated.

// PageSize is the dirty-tracking and copy-on-write granularity.
const PageSize = 4096

// Snapshot is an immutable copy of a PM image, taken at a failure point. It
// includes updates that are not guaranteed persisted (footnote 3 of the
// paper); the shadow PM — not the image — tracks persistence.
type Snapshot struct {
	size  uint64
	pages [][]byte // page i covers [i*PageSize, min((i+1)*PageSize, size))
}

// Size returns the snapshotted pool size in bytes.
func (s *Snapshot) Size() uint64 { return s.size }

// Bytes materializes the snapshot as one flat image copy.
func (s *Snapshot) Bytes() []byte {
	img := make([]byte, s.size)
	for i, pg := range s.pages {
		copy(img[uint64(i)*PageSize:], pg)
	}
	return img
}

func numPages(size uint64) int {
	return int((size + PageSize - 1) / PageSize)
}

// pageBounds returns the [lo, hi) byte range of page pg in a pool of the
// given size.
func pageBounds(pg int, size uint64) (lo, hi uint64) {
	lo = uint64(pg) * PageSize
	hi = lo + PageSize
	if hi > size {
		hi = size
	}
	return lo, hi
}

func clonePage(pg []byte) []byte {
	np := make([]byte, len(pg))
	copy(np, pg)
	return np
}

// FromSnapshot creates a pool backed by a copy-on-write view over s. The
// detection frontend uses it to spawn each post-failure execution: creating
// the view costs one page-pointer copy, and only pages the post-failure
// stage actually writes are ever duplicated.
func FromSnapshot(name string, s *Snapshot) *Pool {
	return &Pool{
		name:      name,
		size:      s.size,
		pages:     append([][]byte(nil), s.pages...),
		owned:     make([]bool, len(s.pages)),
		ipEnabled: true,
	}
}

// TakeSnapshot copies the full PM image, including non-persisted updates.
// On a root pool the copy is O(bytes dirtied since the previous
// TakeSnapshot): clean pages are shared with the previous snapshot.
func (p *Pool) TakeSnapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked()
}

// snapshotLocked is TakeSnapshot's body; callers hold p.mu.
func (p *Pool) snapshotLocked() *Snapshot {
	n := numPages(p.size)
	s := &Snapshot{size: p.size, pages: make([][]byte, n)}
	if p.buf == nil {
		// Snapshotting a COW view: share pages the view never wrote and
		// clone the privatized ones (the view may keep writing to those).
		for i := range s.pages {
			if p.owned[i] {
				s.pages[i] = clonePage(p.pages[i])
			} else {
				s.pages[i] = p.pages[i]
			}
		}
		return s
	}
	if p.base != nil {
		copy(s.pages, p.base.pages)
	}
	for pg := 0; pg < n; pg++ {
		if p.base == nil || p.dirty[pg/64]&(1<<(pg%64)) != 0 {
			lo, hi := pageBounds(pg, p.size)
			s.pages[pg] = clonePage(p.buf[lo:hi])
		}
	}
	p.base = s
	clear(p.dirty)
	return s
}

// DeltaPage is one dirty page captured by TakeDelta.
type DeltaPage struct {
	Index int    // page number (page i covers [i*PageSize, (i+1)*PageSize))
	Data  []byte // immutable once captured; len < PageSize only on the tail
}

// TakeDelta drains the dirty bitmap of a root pool: it returns a clone of
// every page written since the previous TakeDelta (or pool creation) and
// clears the dirty bits, so consecutive deltas compose back into the full
// image when applied in order over a zeroed pool. Recording campaigns
// (internal/record) call it at each failure point to serialize
// page-granular pool deltas instead of full images. Taking a delta resets
// the incremental-snapshot base — the next TakeSnapshot after a TakeDelta
// pays a full copy — which is irrelevant to the record pass, whose
// post-failure stage never runs and therefore never snapshots.
func (p *Pool) TakeDelta() []DeltaPage {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.buf == nil {
		return nil // COW views track no dirty bits
	}
	var out []DeltaPage
	n := numPages(p.size)
	for pg := 0; pg < n; pg++ {
		if p.dirty[pg/64]&(1<<(pg%64)) != 0 {
			lo, hi := pageBounds(pg, p.size)
			out = append(out, DeltaPage{Index: pg, Data: clonePage(p.buf[lo:hi])})
		}
	}
	for i := range p.dirty {
		p.dirty[i] = 0
	}
	p.base = nil
	return out
}

// markDirtyLocked records that [addr, addr+size) was written; callers hold
// p.mu and have bounds-checked the range. Root pools only. On a
// file-backed pool the same write also dirties the writeback bitmap
// (file.go) — one marking path feeds both the incremental snapshots and
// the msync batching, so they can never disagree about what was written.
func (p *Pool) markDirtyLocked(addr, size uint64) {
	if size == 0 || staleDirtyForTest {
		return
	}
	for pg := addr / PageSize; pg <= (addr+size-1)/PageSize; pg++ {
		p.dirty[pg/64] |= 1 << (pg % 64)
		if p.file != nil {
			p.file.syncDirty[pg/64] |= 1 << (pg % 64)
		}
	}
}

// writablePageLocked returns page pg with write permission, privatizing a
// shared snapshot page on first write; callers hold p.mu. COW views only.
func (p *Pool) writablePageLocked(pg uint64) []byte {
	if !p.owned[pg] {
		np := clonePage(p.pages[pg])
		if tornCOWForTest {
			tearPage(np)
		}
		p.pages[pg] = np
		p.owned[pg] = true
	}
	return p.pages[pg]
}

// writeLocked copies data into the image at addr; callers hold p.mu and
// have bounds-checked the range.
func (p *Pool) writeLocked(addr uint64, data []byte) {
	if p.buf != nil {
		copy(p.buf[addr:], data)
		p.markDirtyLocked(addr, uint64(len(data)))
		return
	}
	for len(data) > 0 {
		page := p.writablePageLocked(addr / PageSize)
		n := copy(page[addr%PageSize:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// readLocked copies len(dst) image bytes at addr into dst; callers hold
// p.mu and have bounds-checked the range.
func (p *Pool) readLocked(addr uint64, dst []byte) {
	if p.buf != nil {
		copy(dst, p.buf[addr:])
		return
	}
	for len(dst) > 0 {
		n := copy(dst, p.pages[addr/PageSize][addr%PageSize:])
		dst = dst[n:]
		addr += uint64(n)
	}
}

// memsetLocked writes n copies of b starting at addr; callers hold p.mu and
// have bounds-checked the range.
func (p *Pool) memsetLocked(addr uint64, b byte, n uint64) {
	if p.buf != nil {
		for i := uint64(0); i < n; i++ {
			p.buf[addr+i] = b
		}
		p.markDirtyLocked(addr, n)
		return
	}
	for n > 0 {
		page := p.writablePageLocked(addr / PageSize)
		off := addr % PageSize
		run := uint64(len(page)) - off
		if run > n {
			run = n
		}
		for i := uint64(0); i < run; i++ {
			page[off+i] = b
		}
		addr += run
		n -= run
	}
}

// Poke writes data at addr without tracing, dirtying pages and privatizing
// COW pages exactly like a traced store. The differential fuzzer uses it to
// plant deterministic values that its oracle predicts independently; it is
// a harness API, not part of the simulated instruction set.
func (p *Pool) Poke(addr uint64, data []byte) {
	p.check("poke", addr, uint64(len(data)))
	p.mu.Lock()
	p.writeLocked(addr, data)
	p.mu.Unlock()
}

// Peek reads len(dst) bytes at addr into dst without tracing. The harness
// counterpart of Poke.
func (p *Pool) Peek(addr uint64, dst []byte) {
	p.check("peek", addr, uint64(len(dst)))
	p.mu.Lock()
	p.readLocked(addr, dst)
	p.mu.Unlock()
}
