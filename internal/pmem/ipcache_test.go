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
