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

// ipProbe is a sink that, for every delivered entry, also runs the bounded
// walk and the reference walk from its own Record frame. Record is called
// by deliver, a sibling of the capture helper under the same accessor
// frames, so both walks see the accessor chain plus one more in-package
// frame than the production capture did: the Persist chain (deliver,
// emit, CLWB/SFence, Persist) then fills the bounded walk's first window
// and exercises its continuation.
type ipProbe struct {
	got []ipProbed
}

type ipProbed struct {
	kind                         trace.Kind
	captured, bounded, reference string
	depth                        int
}

func (r *ipProbe) Record(e trace.Entry) {
	bounded := callerIP()
	reference, depth := refCallerIP()
	r.got = append(r.got, ipProbed{kind: e.Kind, captured: e.IP, bounded: bounded, reference: reference, depth: depth})
}

// TestCallerIPMatchesFullWalk: for every accessor shape, on a root pool
// and on a copy-on-write post-failure pool, the bounded IP walk returns
// exactly what the 16-PC reference walk returns, and the entry's captured
// IP names the calling line in this file.
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
		{"AnnounceEntry", []trace.Kind{trace.RegCommitVar}, func(p *Pool) {
			p.AnnounceEntry(trace.Entry{Kind: trace.RegCommitVar, Addr: 0, Size: 8})
		}},
	}
	root := New("root", 8192)
	root.Store64(4096, 1)
	pools := []struct {
		name string
		p    *Pool
	}{
		{"root", root},
		{"from-snapshot", FromSnapshot("post", root.TakeSnapshot())},
	}
	deepest := 0
	for _, pc := range pools {
		for _, sh := range shapes {
			t.Run(pc.name+"/"+sh.name, func(t *testing.T) {
				probe := &ipProbe{}
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
					if g.bounded != g.reference {
						t.Errorf("entry %d: bounded walk = %q, reference walk = %q", i, g.bounded, g.reference)
					}
					if g.captured != g.reference {
						t.Errorf("entry %d: captured IP = %q, reference walk = %q", i, g.captured, g.reference)
					}
				}
			})
		}
	}
	if deepest < ipFirstPCs {
		t.Errorf("deepest probed chain has %d in-package frames; the bounded walk's continuation past %d went unexercised", deepest, ipFirstPCs)
	}
}
