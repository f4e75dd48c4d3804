// Package baseline implements simplified versions of the two prior-work
// crash-consistency checkers the paper compares against (Fig. 3, §8):
// pmemcheck and PMTest. Both are pre-failure-only tools: they analyze one
// uninterrupted execution trace and never run recovery, so — as the paper
// argues — they cannot see bugs whose symptom only exists across a failure
// (cross-failure semantic bugs and post-failure-stage bugs).
//
// The checkers consume the same trace the XFDetector frontend produces
// (core.Config.KeepTrace), which keeps the comparison apples-to-apples.
package baseline

import (
	"fmt"
	"sort"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/shadow"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// FindingKind classifies a baseline finding.
type FindingKind uint8

const (
	// NotPersisted: a store was still not guaranteed persistent when the
	// program ended (pmemcheck's "stores not made persistent").
	NotPersisted FindingKind = iota
	// NotFenced: a store was written back but never fenced by program end.
	NotFenced
	// RedundantFlush: a writeback covering no modified data (pmemcheck's
	// superfluous-flush report).
	RedundantFlush
	// UnprotectedTxWrite: a write inside a transaction to a range not
	// covered by TX_ADD or a transactional allocation (PMTest's
	// transaction checker).
	UnprotectedTxWrite
	// DuplicateTxAdd: the same range TX_ADDed twice in one transaction
	// (PMTest's performance checker).
	DuplicateTxAdd
)

// String names the finding kind.
func (k FindingKind) String() string {
	switch k {
	case NotPersisted:
		return "store-not-persisted"
	case NotFenced:
		return "store-not-fenced"
	case RedundantFlush:
		return "redundant-flush"
	case UnprotectedTxWrite:
		return "unprotected-tx-write"
	case DuplicateTxAdd:
		return "duplicate-tx-add"
	}
	return fmt.Sprintf("FindingKind(%d)", uint8(k))
}

// Finding is one baseline report, deduplicated by (kind, source location).
type Finding struct {
	Kind  FindingKind
	Addr  uint64
	Size  uint64
	IP    string
	Bytes uint64 // total bytes implicated (NotPersisted/NotFenced)
}

// String formats the finding.
func (f Finding) String() string {
	return fmt.Sprintf("%s at %s ([0x%x, 0x%x))", f.Kind, f.IP, f.Addr, f.Addr+f.Size)
}

// Pmemcheck replays a pre-failure trace through the persistence state
// machine and reports, like pmemcheck: stores whose persistence was never
// guaranteed by the end of the run (split into never-written-back and
// written-back-but-never-fenced) and redundant writebacks. poolSize bounds
// the shadow; it must cover every traced address.
func Pmemcheck(tr *trace.Trace, poolSize uint64) []Finding {
	sh := shadow.NewPM(poolSize)
	var perf []Finding
	seenPerf := map[string]bool{}
	sh.SetPerfBugHandler(func(b shadow.PerfBug) {
		// pmemcheck checks flushes, not transactions: a duplicate TX_ADD is
		// PMTest's finding (DuplicateTxAdd there), not a redundant flush.
		if b.Kind != shadow.RedundantFlush {
			return
		}
		key := fmt.Sprintf("%d|%s", RedundantFlush, b.IP)
		if seenPerf[key] {
			return
		}
		seenPerf[key] = true
		perf = append(perf, Finding{Kind: RedundantFlush, Addr: b.Addr, Size: b.Size, IP: b.IP})
	})
	for _, e := range tr.Entries() {
		sh.Apply(e)
	}
	findings := sweepNonPersisted(sh, poolSize)
	return append(findings, perf...)
}

// sweepNonPersisted scans the final shadow state for bytes whose stores
// were never guaranteed persistent, grouped by writer location.
func sweepNonPersisted(sh *shadow.PM, poolSize uint64) []Finding {
	type agg struct {
		kind        FindingKind
		first, last uint64
		bytes       uint64
	}
	byWriter := map[string]*agg{}
	var order []string
	for b := uint64(0); b < poolSize; b++ {
		st := sh.State(b)
		if sh.WriteEpoch(b) == 0 || st == shadow.Persisted {
			continue
		}
		kind := NotPersisted
		if st == shadow.WritebackPending {
			kind = NotFenced
		}
		ip := sh.WriterIP(b)
		key := fmt.Sprintf("%d|%s", kind, ip)
		a, ok := byWriter[key]
		if !ok {
			a = &agg{kind: kind, first: b, last: b}
			byWriter[key] = a
			order = append(order, key)
		}
		a.last = b
		a.bytes++
	}
	sort.Strings(order)
	var out []Finding
	for _, key := range order {
		a := byWriter[key]
		out = append(out, Finding{
			Kind:  a.kind,
			Addr:  a.first,
			Size:  a.last - a.first + 1,
			IP:    key[2:],
			Bytes: a.bytes,
		})
	}
	return out
}

// PMTest replays a pre-failure trace like PMTest's high-level checkers:
// writes inside a transaction must target TX_ADDed (or transactionally
// allocated) ranges, TX_ADDs must not repeat, and — like its low-level
// isPersisted checks — data modified outside transactions must be
// persisted by the end of the run.
func PMTest(tr *trace.Trace, poolSize uint64) []Finding {
	var findings []Finding
	seen := map[string]bool{}
	report := func(k FindingKind, addr, size uint64, ip string) {
		key := fmt.Sprintf("%d|%s", k, ip)
		if seen[key] {
			return
		}
		seen[key] = true
		findings = append(findings, Finding{Kind: k, Addr: addr, Size: size, IP: ip})
	}

	type span struct{ addr, size uint64 }
	covered := func(spans []span, addr, size uint64) bool {
		// Every byte of [addr, addr+size) must fall in some span.
		for b := addr; b < addr+size; {
			advanced := false
			for _, s := range spans {
				if b >= s.addr && b < s.addr+s.size {
					if s.addr+s.size >= addr+size {
						return true
					}
					b = s.addr + s.size
					advanced = true
					break
				}
			}
			if !advanced {
				return false
			}
		}
		return true
	}

	// Non-tx persistence tracking reuses the shadow FSM.
	sh := shadow.NewPM(poolSize)
	txDepth := 0
	var added, explicit []span // explicit: TX_ADDs only, for duplicate checks
	for _, e := range tr.Entries() {
		sh.Apply(e)
		switch e.Kind {
		case trace.TxBegin:
			if txDepth == 0 {
				added, explicit = added[:0], explicit[:0]
			}
			txDepth++
		case trace.TxCommit, trace.TxAbort:
			if txDepth > 0 {
				txDepth--
			}
		case trace.TxAdd:
			// Adding a freshly tx-allocated object is legitimate; only a
			// repeat of an explicit TX_ADD is the performance bug.
			if txDepth > 0 && covered(explicit, e.Addr, e.Size) {
				report(DuplicateTxAdd, e.Addr, e.Size, e.IP)
			}
			added = append(added, span{e.Addr, e.Size})
			explicit = append(explicit, span{e.Addr, e.Size})
		case trace.TxAlloc:
			added = append(added, span{e.Addr, e.Size})
		case trace.Write, trace.NTStore:
			if txDepth > 0 && !e.InLibrary && !covered(added, e.Addr, e.Size) {
				report(UnprotectedTxWrite, e.Addr, e.Size, e.IP)
			}
		}
	}
	return append(findings, sweepNonPersisted(sh, poolSize)...)
}

// poolSizeFor returns a shadow size covering every address in the trace,
// rounded up to a cache line.
func PoolSizeFor(tr *trace.Trace) uint64 {
	max := uint64(0)
	for _, e := range tr.Entries() {
		if end := e.End(); end > max {
			max = end
		}
	}
	return pmem.LineUp(max)
}
