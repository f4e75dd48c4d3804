package pmem

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// Instruction-pointer capture.
//
// Every traced PM operation records the source location of its caller — the
// stand-in for the instruction pointer Pin captures in the paper. Capture
// has two costs: walking the stack for raw PCs (runtime.Callers), and
// resolving a PC to file:line (runtime.CallersFrames plus string
// building). The walk dominates, so it is bounded. Every accessor reaches
// its caller within four frames of the capture helper — Persist, the
// deepest chain, at the fourth — so callerIP asks for four PCs first and
// walks the remaining twelve of its 16-frame window only when all four are
// in-package, returning exactly what one 16-PC walk would. Resolution is
// memoized per PC: a workload executes the same handful of call sites
// millions of times. The cache is package-global: PCs are process-stable,
// and sharing it across pools lets post-failure executions reuse what the
// pre-failure stage resolved.

// ipCacheEntry is the memoized skip/answer decision for one PC. done means
// the walk stops at this PC with loc as the answer; otherwise the PC's
// frames were all internal and the walk continues to the next PC.
type ipCacheEntry struct {
	loc  string
	done bool
}

var ipCache sync.Map // uintptr → ipCacheEntry

const (
	// ipFirstPCs is the first walk's window: enough for every accessor
	// chain. ipMaxPCs bounds the whole walk.
	ipFirstPCs = 4
	ipMaxPCs   = 16
	// ipSkip skips runtime.Callers, callerIP and the capture helper; the
	// remaining in-package frames (the pool accessor itself) are filtered
	// by file.
	ipSkip = 3
)

// callerIP returns the file:line of the nearest caller outside this package
// within ipMaxPCs frames of the capture helper's caller.
func callerIP() string {
	var pcs [ipMaxPCs]uintptr
	n := runtime.Callers(ipSkip, pcs[:ipFirstPCs])
	for _, pc := range pcs[:n] {
		if ent := resolvePC(pc); ent.done {
			return ent.loc
		}
	}
	if n < ipFirstPCs {
		return ""
	}
	n = runtime.Callers(ipSkip+ipFirstPCs, pcs[ipFirstPCs:])
	for _, pc := range pcs[ipFirstPCs : ipFirstPCs+n] {
		if ent := resolvePC(pc); ent.done {
			return ent.loc
		}
	}
	return ""
}

// resolvePC memoizes the frame walk for a single PC, including inlined
// frames (one PC can expand to several).
func resolvePC(pc uintptr) ipCacheEntry {
	if v, ok := ipCache.Load(pc); ok {
		return v.(ipCacheEntry)
	}
	var ent ipCacheEntry
	frames := runtime.CallersFrames([]uintptr{pc})
	for {
		f, more := frames.Next()
		if f.File == "" {
			ent = ipCacheEntry{done: true}
			break
		}
		if !strings.Contains(f.File, "internal/pmem/") || strings.HasSuffix(f.File, "_test.go") {
			ent = ipCacheEntry{loc: shortFile(f.File) + ":" + strconv.Itoa(f.Line), done: true}
			break
		}
		if !more {
			break
		}
	}
	ipCache.Store(pc, ent)
	return ent
}

func shortFile(path string) string {
	// Keep the last two path elements: "pkg/file.go".
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return path
	}
	j := strings.LastIndexByte(path[:i], '/')
	if j < 0 {
		return path
	}
	return path[j+1:]
}
