package fuzzgen

import (
	"fmt"
	"sort"
	"sync"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// opTraceKind maps program ops to the trace kinds they announce.
var opTraceKind = [numOpKinds]trace.Kind{
	OpStore:          trace.Write,
	OpNTStore:        trace.NTStore,
	OpCLWB:           trace.CLWB,
	OpCLFlush:        trace.CLFlush,
	OpFence:          trace.SFence,
	OpLoad:           trace.Read,
	OpTxBegin:        trace.TxBegin,
	OpTxAdd:          trace.TxAdd,
	OpTxCommit:       trace.TxCommit,
	OpTxAbort:        trace.TxAbort,
	OpRegCommitVar:   trace.RegCommitVar,
	OpRegCommitRange: trace.RegCommitRange,
}

// Store data patterns.
//
// Generated programs are data-independent — no op branches on a loaded
// value — but the bytes their stores leave behind still matter: the
// post-failure image must be byte-identical however the harness produced
// it (full image copy, incremental dirty-page delta, copy-on-write view).
// Every non-empty store therefore writes a deterministic pattern derived
// from its ordinal, and every post-failure load reads the actual bytes
// back into a PostReadLog whose digests the oracle predicts independently
// (OracleResult.PostReads). A snapshot bug that reports the right
// verdicts over stale or torn data is caught by the digests alone.

// preStoreValue is the byte every part of the k-th non-empty setup/pre
// store writes, with k counted across setup then pre in op order — the
// same numbering the oracle's store ordinals use. Values avoid 0, the
// pool's initial content.
func preStoreValue(ord int) byte { return byte(ord%251) + 1 }

// postStoreValue is the byte the post-failure store at op index i writes.
func postStoreValue(i int) byte { return byte(i%251) + 2 }

// PostReadLog records the exact bytes every post-failure load observed,
// keyed by failure point and post-op index. It is safe for concurrent
// use: the siblings of a Workers > 1 run post-failure stages concurrently.
type PostReadLog struct {
	mu sync.Mutex
	m  map[string]string
}

// record stores the digest for the load at post-op index opIdx of failure
// point fp. A retried attempt re-observes the same key; if the bytes ever
// differ across observations — itself a snapshot-determinism bug — both
// digests are kept so the comparison fails loudly.
func (l *PostReadLog) record(fp, opIdx int, data []byte) {
	key := fmt.Sprintf("fp%d.%d", fp, opIdx)
	val := fmt.Sprintf("%x", data)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = make(map[string]string)
	}
	if prev, ok := l.m[key]; ok && prev != val {
		l.m[key] = prev + "|" + val
		return
	}
	l.m[key] = val
}

// Canonical returns the log as sorted "fp<k>.<i>:<hex>" digests, directly
// comparable with OracleResult.PostReads.
func (l *PostReadLog) Canonical() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.m))
	for k, v := range l.m {
		out = append(out, k+":"+v)
	}
	sort.Strings(out)
	return out
}

// BuildTarget compiles p into a runnable detection target with no read
// log attached.
func BuildTarget(p Program) core.Target { return BuildTargetRecording(p, nil) }

// BuildTargetRecording compiles p into a runnable detection target.
//
// Memory ops are announced with explicit synthetic source locations
// (OpIP), so each generated op has a stable per-op identity in report
// deduplication — the analogue of distinct source lines. Fences go
// through the pool's real SFence so the detector's fence hook (the
// failure injector) fires exactly as it would for a real program. Stores
// additionally Poke their deterministic byte pattern into the pool —
// untraced, so entry counts and classification are untouched, but the
// data still flows through the snapshot machinery — and, when log is
// non-nil, every post-failure load Peeks the bytes it covers into log.
func BuildTargetRecording(p Program, log *PostReadLog) core.Target {
	setupVals, preVals := storeValues(p)
	stageFn := func(stage string, ops []Op, vals map[int]byte) func(*core.Ctx) error {
		return func(c *core.Ctx) error {
			pool := c.Pool()
			for i, op := range ops {
				if op.Kind == OpFence {
					pool.SFence()
					continue
				}
				if (op.Kind == OpStore || op.Kind == OpNTStore) && op.Size > 0 {
					// Data lands before the entry is announced, the same
					// order Pool.Store establishes.
					v := postStoreValue(i)
					if stage != "post" {
						v = vals[i]
					}
					pool.Poke(op.Addr, repeatByte(v, op.Size))
				}
				pool.AnnounceEntry(trace.Entry{
					Kind:  opTraceKind[op.Kind],
					Addr:  op.Addr,
					Size:  op.Size,
					Addr2: op.Addr2,
					Size2: op.Size2,
					IP:    OpIP(stage, i),
				})
				if log != nil && stage == "post" && op.Kind == OpLoad && op.Size > 0 {
					buf := make([]byte, op.Size)
					pool.Peek(op.Addr, buf)
					log.record(c.FailurePoint(), i, buf)
				}
			}
			return nil
		}
	}
	t := core.Target{
		Name: p.Name,
		Pre:  stageFn("pre", p.Pre, preVals),
	}
	if len(p.Setup) > 0 {
		t.Setup = stageFn("setup", p.Setup, setupVals)
	}
	t.Post = stageFn("post", p.Post, nil)
	return t
}

// storeValues assigns each non-empty setup/pre store its pattern byte, in
// the setup-then-pre ordinal numbering the oracle uses.
func storeValues(p Program) (setup, pre map[int]byte) {
	setup, pre = map[int]byte{}, map[int]byte{}
	ord := 0
	walk := func(ops []Op, m map[int]byte) {
		for i, op := range ops {
			if (op.Kind == OpStore || op.Kind == OpNTStore) && op.Size > 0 {
				m[i] = preStoreValue(ord)
				ord++
			}
		}
	}
	walk(p.Setup, setup)
	walk(p.Pre, pre)
	return setup, pre
}

func repeatByte(v byte, n uint64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = v
	}
	return b
}
