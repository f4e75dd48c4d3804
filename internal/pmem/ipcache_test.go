package pmem

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/trace"
)

// refCallerIP is the reference capture walk: it asks for 16 PCs at once
// and resolves them in a single CallersFrames pass, independently of the
// per-PC cache, returning the first frame outside this package (a test
// file counts as outside) and how many in-package frames preceded it. It
// skips runtime.Callers, itself and its caller.
func refCallerIP() (loc string, depth int) {
	var pcs [16]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for ; ; depth++ {
		f, more := frames.Next()
		if f.File == "" {
			return "", depth
		}
		if !strings.Contains(f.File, "internal/pmem/") || strings.HasSuffix(f.File, "_test.go") {
			return shortFile(f.File) + ":" + strconv.Itoa(f.Line), depth
		}
		if !more {
			return "", depth
		}
	}
}

// ipProbe is a sink that, for every delivered entry, also runs the walk
// under test and the reference walk from its own Record frame (Record is
// defined per architecture, next to the walk it runs). Record is called by
// deliver, a sibling of the capture helper under the same accessor frames,
// so both walks see the accessor chain plus one more in-package frame than
// the production capture did: the Persist chain (deliver, emit,
// CLWB/SFence, Persist) is four in-package frames deep.
type ipProbe struct {
	got []ipProbed
}

type ipProbed struct {
	kind                        trace.Kind
	captured, walked, reference string
	depth                       int
}

// promoted reaches the pool's accessors through an embedding value type.
type promoted struct{ *Pool }

type storer interface{ Store64(addr, v uint64) }

// storeThrough calls Store64 through an interface, so the call passes the
// compiler-generated wrapper for promoted's Store64: runtime.Callers elides
// that frame, and a frame-pointer walk sees it.
//
//go:noinline
func storeThrough(s storer) { s.Store64(8, 1) }

// TestCallerIPMatchesFullWalk: for every accessor shape, on a root pool, on
// a copy-on-write post-failure pool in both stages, the IP walk returns
// exactly what the 16-PC reference walk returns, and the entry carries the
// reference IP exactly for the (stage, kind) pairs some consumer reads,
// and no IP otherwise.
func TestCallerIPMatchesFullWalk(t *testing.T) {
	shapes := []struct {
		name  string
		kinds []trace.Kind
		op    func(p *Pool)
	}{
		{"Store", []trace.Kind{trace.Write}, func(p *Pool) { p.Store(0, []byte{1, 2, 3}) }},
		{"NTStore", []trace.Kind{trace.NTStore}, func(p *Pool) { p.NTStore(64, []byte{1}) }},
		{"Store8", []trace.Kind{trace.Write}, func(p *Pool) { p.Store8(1, 1) }},
		{"Store16", []trace.Kind{trace.Write}, func(p *Pool) { p.Store16(2, 1) }},
		{"Store32", []trace.Kind{trace.Write}, func(p *Pool) { p.Store32(4, 1) }},
		{"Store64", []trace.Kind{trace.Write}, func(p *Pool) { p.Store64(8, 1) }},
		{"Store64/promoted", []trace.Kind{trace.Write}, func(p *Pool) { storeThrough(promoted{p}) }},
		{"Load", []trace.Kind{trace.Read}, func(p *Pool) { p.Load(0, make([]byte, 3)) }},
		{"Load8", []trace.Kind{trace.Read}, func(p *Pool) { p.Load8(1) }},
		{"Load16", []trace.Kind{trace.Read}, func(p *Pool) { p.Load16(2) }},
		{"Load32", []trace.Kind{trace.Read}, func(p *Pool) { p.Load32(4) }},
		{"Load64", []trace.Kind{trace.Read}, func(p *Pool) { p.Load64(8) }},
		{"Memset", []trace.Kind{trace.Write}, func(p *Pool) { p.Memset(128, 7, 100) }},
		{"Copy", []trace.Kind{trace.Read, trace.Write}, func(p *Pool) { p.Copy(512, 0, 64) }},
		{"CLWB", []trace.Kind{trace.CLWB}, func(p *Pool) { p.CLWB(0, 8) }},
		{"CLFlush", []trace.Kind{trace.CLFlush}, func(p *Pool) { p.CLFlush(0, 8) }},
		{"SFence", []trace.Kind{trace.SFence}, func(p *Pool) { p.SFence() }},
		{"Persist", []trace.Kind{trace.CLWB, trace.SFence}, func(p *Pool) { p.Persist(0, 8) }},
		{"Announce", []trace.Kind{trace.TxBegin}, func(p *Pool) { p.Announce(trace.TxBegin, 0, 0, "tx") }},
		{"Announce/TxAdd", []trace.Kind{trace.TxAdd}, func(p *Pool) { p.Announce(trace.TxAdd, 0, 16, "tx") }},
		{"Announce/TxAlloc", []trace.Kind{trace.TxAlloc}, func(p *Pool) { p.Announce(trace.TxAlloc, 64, 16, "tx") }},
		{"Announce/AtomicAlloc", []trace.Kind{trace.AtomicAlloc}, func(p *Pool) { p.Announce(trace.AtomicAlloc, 64, 16, "alloc") }},
		{"Announce/TxCommit", []trace.Kind{trace.TxCommit}, func(p *Pool) { p.Announce(trace.TxCommit, 0, 0, "tx") }},
		{"AnnounceEntry", []trace.Kind{trace.RegCommitVar}, func(p *Pool) {
			p.AnnounceEntry(trace.Entry{Kind: trace.RegCommitVar, Addr: 0, Size: 8})
		}},
		{"AnnounceEntry/CommitVarWrite", []trace.Kind{trace.CommitVarWrite}, func(p *Pool) {
			p.AnnounceEntry(trace.Entry{Kind: trace.CommitVarWrite, Addr: 0, Size: 8})
		}},
		{"AnnounceEntry/Read", []trace.Kind{trace.Read}, func(p *Pool) {
			p.AnnounceEntry(trace.Entry{Kind: trace.Read, Addr: 0, Size: 8})
		}},
	}
	// readIP pins ipReaders: the kinds, per stage, whose IP a consumer
	// reads.
	readIP := map[trace.Stage]map[trace.Kind]bool{
		trace.PreFailure: {trace.Write: true, trace.NTStore: true, trace.CLWB: true, trace.CLFlush: true,
			trace.TxAdd: true, trace.AtomicAlloc: true, trace.CommitVarWrite: true},
		trace.PostFailure: {trace.Read: true},
	}
	root := New("root", 8192)
	root.Store64(4096, 1)
	post := FromSnapshot("post", root.TakeSnapshot())
	pools := []struct {
		name  string
		p     *Pool
		stage trace.Stage
	}{
		{"root", root, trace.PreFailure},
		{"from-snapshot", post, trace.PreFailure},
		{"from-snapshot/post-failure", post, trace.PostFailure},
	}
	deepest := 0
	for _, pc := range pools {
		for _, sh := range shapes {
			t.Run(pc.name+"/"+sh.name, func(t *testing.T) {
				probe := &ipProbe{}
				pc.p.SetStage(pc.stage)
				pc.p.SetSink(probe)
				defer pc.p.SetSink(nil)
				sh.op(pc.p)
				if len(probe.got) != len(sh.kinds) {
					t.Fatalf("%d entries, want %d", len(probe.got), len(sh.kinds))
				}
				for i, g := range probe.got {
					deepest = max(deepest, g.depth)
					if g.kind != sh.kinds[i] {
						t.Errorf("entry %d kind = %v, want %v", i, g.kind, sh.kinds[i])
					}
					if !strings.HasPrefix(g.reference, "pmem/ipcache_test.go:") {
						t.Errorf("entry %d: reference walk = %q, want a line in this file", i, g.reference)
					}
					if g.walked != g.reference {
						t.Errorf("entry %d: walk = %q, reference walk = %q", i, g.walked, g.reference)
					}
					want := ""
					if readIP[pc.stage][g.kind] {
						want = g.reference
					}
					if g.captured != want {
						t.Errorf("entry %d (%v, %v): captured IP = %q, want %q", i, pc.stage, g.kind, g.captured, want)
					}
				}
			})
		}
	}
	// The fallback walk's first window is four PCs; the deepest chain must
	// reach past it.
	if deepest < 4 {
		t.Errorf("deepest probed chain has %d in-package frames, want at least 4", deepest)
	}
}

// refResolvePC is the reference for one PC's cache entry: a fresh
// CallersFrames expansion with the capture walk's filter, consulting
// neither ipTable nor ipCache.
func refResolvePC(pc uintptr) ipCacheEntry {
	frames := runtime.CallersFrames([]uintptr{pc})
	for {
		f, more := frames.Next()
		if f.File == "" {
			return ipCacheEntry{done: true}
		}
		if f.File != "<autogenerated>" &&
			(!strings.Contains(f.File, "internal/pmem/") || strings.HasSuffix(f.File, "_test.go")) {
			return ipCacheEntry{loc: shortFile(f.File) + ":" + strconv.Itoa(f.Line), done: true}
		}
		if !more {
			return ipCacheEntry{}
		}
	}
}

// TestIPTableCollidingPCs: two PCs that share an ipTable slot, resolved
// alternately, each evict the other and still each resolve to their own
// reference entry.
func TestIPTableCollidingPCs(t *testing.T) {
	var pcs [1]uintptr
	runtime.Callers(1, pcs[:])
	a := pcs[0]
	refA := refResolvePC(a)
	if refA.loc == "" || !strings.HasPrefix(refA.loc, "pmem/ipcache_test.go:") {
		t.Fatalf("reference entry for this test's own PC = %+v, want a line in this file", refA)
	}
	var b uintptr
	var refB ipCacheEntry
	for pc := a + 1; pc < a+1<<16; pc++ {
		if ipSlotIndex(pc) == ipSlotIndex(a) {
			if ref := refResolvePC(pc); ref != refA {
				b, refB = pc, ref
				break
			}
		}
	}
	if b == 0 {
		t.Fatalf("no PC within 64 KiB above %#x shares its slot and resolves differently", a)
	}
	slot := &ipTable[ipSlotIndex(a)]
	for i := 0; i < 4; i++ {
		for _, c := range []struct {
			pc  uintptr
			ref ipCacheEntry
		}{{a, refA}, {b, refB}} {
			if got := resolvePC(c.pc); got != c.ref {
				t.Fatalf("round %d: resolvePC(%#x) = %+v, want %+v", i, c.pc, got, c.ref)
			}
			if s := slot.Load(); s == nil || s.pc != c.pc {
				t.Fatalf("round %d: slot does not hold %#x after resolving it", i, c.pc)
			}
		}
	}
}

// ipCount is a sink that counts delivered entries whose IP differs from
// want.
type ipCount struct {
	want     string
	n, wrong int
	first    string
}

func (c *ipCount) Record(e trace.Entry) {
	c.n++
	if e.IP != c.want {
		if c.wrong == 0 {
			c.first = e.IP
		}
		c.wrong++
	}
}

// storeAtSite stores through one of eight distinct call sites.
//
//go:noinline
func storeAtSite(p *Pool, site int) {
	switch site {
	case 0:
		p.Store64(0, 1)
	case 1:
		p.Store64(8, 1)
	case 2:
		p.Store64(16, 1)
	case 3:
		p.Store64(24, 1)
	case 4:
		p.Store64(32, 1)
	case 5:
		p.Store64(40, 1)
	case 6:
		p.Store64(48, 1)
	case 7:
		p.Store64(56, 1)
	}
}

// TestIPTableConcurrentCaptures: eight goroutines, each on its own pool,
// capture 10,000 store IPs through distinct call sites at once, sharing
// ipTable and ipCache; every captured IP equals the reference walk's for
// its site. The captures run in ten rounds that each start together on an
// empty table, so the goroutines publish into it concurrently instead of
// only reading what earlier captures published; under -race this proves
// the publication race-clean.
func TestIPTableConcurrentCaptures(t *testing.T) {
	const sites, rounds, perRound = 8, 10, 1000
	want := make([]string, sites)
	for site := range want {
		p := New("probe", 4096)
		probe := &ipProbe{}
		p.SetSink(probe)
		storeAtSite(p, site)
		if len(probe.got) != 1 || probe.got[0].captured != probe.got[0].reference {
			t.Fatalf("site %d: probe = %+v, want one capture equal to the reference walk", site, probe.got)
		}
		want[site] = probe.got[0].reference
		for _, w := range want[:site] {
			if w == want[site] {
				t.Fatalf("site %d shares its reference IP %q with another site", site, w)
			}
		}
	}
	counts := make([]*ipCount, sites)
	pools := make([]*Pool, sites)
	for site := range counts {
		counts[site] = &ipCount{want: want[site]}
		pools[site] = New("concurrent", 4096)
		pools[site].SetSink(counts[site])
	}
	done := make(chan struct{})
	for r := 0; r < rounds; r++ {
		for i := range ipTable {
			ipTable[i].Store(nil)
		}
		start := make(chan struct{})
		for site, p := range pools {
			go func() {
				defer func() { done <- struct{}{} }()
				<-start
				for i := 0; i < perRound; i++ {
					storeAtSite(p, site)
				}
			}()
		}
		close(start)
		for range pools {
			<-done
		}
	}
	for site, c := range counts {
		if c.n != rounds*perRound || c.wrong != 0 {
			t.Errorf("site %d: %d of %d captures differ from %q (first %q)", site, c.wrong, c.n, c.want, c.first)
		}
	}
}
