// Package vcache is the on-disk cross-campaign crash-state verdict cache.
//
// A campaign that resolves a crash-state class cleanly has proven something
// durable: any later campaign of the *identical program* reaching the same
// fingerprint will observe the same post-failure behaviour, so its post-run
// can be skipped and the class's reports re-seeded. The cache persists
// exactly those facts, as checkpoint lines (internal/ckpt) stamped with
// their campaign identity, appended and fsynced through a ckpt.Log as
// classes resolve — and nothing else: dirty verdicts are value-bearing
// (fault messages quote data, abandonments depend on deadlines) and are
// never cached, so a repeat campaign re-executes them. Files written
// before entries were checkpoint lines still load.
//
// The cache learns from a campaign's checkpoint lines through one rule,
// Binding.Add, whichever process sees them: the standalone CLI (its
// -resume lines first, then every line it completes), the -serve daemon
// (the lines its shards stream) and the differential fuzzer.
//
// Identity is the first key component because fingerprints cover only the
// pre-failure state: two programs that differ solely in their post-failure
// stage produce identical fingerprints and must not share verdicts. Callers
// hash every program/config knob that can change the traced execution or
// the post-failure checker into the identity (cmd/xfdetector hashes its
// workload flags; the -serve daemon hashes the campaign argv; the fuzzer
// hashes the program JSON). Over-approximating identity is safe — it only
// costs cache misses.
//
// Entries carry no fingerprint-scheme version: when the fingerprint
// scheme changes, entries written under the old one simply miss. A
// cross-scheme match would be a 64-bit hash collision, the same risk the
// cache already accepts between distinct crash states of one scheme.
package vcache

import (
	"fmt"
	"hash/fnv"
	"sync"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
)

// Identity hashes canonical program/config description strings into a
// cache identity. The parts are length-prefixed so distinct part lists
// never collide by concatenation.
func Identity(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return h.Sum64()
}

type key struct{ id, fpr uint64 }

// ignoreIdentityForTest is a deliberate soundness bug for the mutation
// battery: key the cache by fingerprint alone, sharing verdicts across
// different programs (stale-cache-after-program-change). The differential
// battery in internal/fuzzgen proves it is caught.
var ignoreIdentityForTest = false

// SetIgnoreIdentityForTest toggles the seeded stale-cache mutant. Tests
// only.
func SetIgnoreIdentityForTest(on bool) { ignoreIdentityForTest = on }

func makeKey(id, fpr uint64) key {
	if ignoreIdentityForTest {
		id = 0
	}
	return key{id: id, fpr: fpr}
}

// Cache is one open verdict-cache file. Safe for concurrent use; an entry
// is appended and fsynced before it becomes visible to Lookup, so a crash
// mid-campaign loses at most the entry being written.
type Cache struct {
	mu      sync.Mutex
	log     *ckpt.Log
	entries map[key][]core.Report
}

// Open loads path (which need not exist) and opens it for appending
// (ckpt.OpenLog: a torn trailing entry is cut, corruption before intact
// entries is an error).
func Open(path string) (*Cache, error) {
	log, lines, err := ckpt.OpenLog(path, false)
	if err != nil {
		return nil, fmt.Errorf("vcache: %w", err)
	}
	c := &Cache{log: log, entries: make(map[key][]core.Report, len(lines))}
	for _, l := range lines {
		c.entries[makeKey(l.ID, l.FPrint)] = l.Reports
	}
	return c, nil
}

// Lookup returns the cached clean verdict's reports for (id, fpr), if any.
func (c *Cache) Lookup(id, fpr uint64) ([]core.Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	reports, ok := c.entries[makeKey(id, fpr)]
	if !ok {
		return nil, false
	}
	return append([]core.Report(nil), reports...), true
}

// Len reports the number of cached verdicts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Close closes the backing file; the cache must not be used afterwards.
func (c *Cache) Close() error { return c.log.Close() }

// Bind returns the cache's view of one campaign of identity id.
func (c *Cache) Bind(id uint64) *Binding {
	return &Binding{c: c, id: id, settled: make(map[uint64]bool)}
}

// Binding is one campaign's view of the cache: a core.VerdictSource for
// its runs, and the one place a campaign's checkpoint lines become cache
// entries (Add).
type Binding struct {
	c       *Cache
	id      uint64
	settled map[uint64]bool // fingerprints whose first line arrived; under c.mu
}

// Lookup answers from the cache under the campaign's identity.
func (b *Binding) Lookup(fpr uint64) ([]core.Report, bool) {
	return b.c.Lookup(b.id, fpr)
}

// Entries returns the campaign's cached verdicts by fingerprint: the
// -serve daemon hands a shard child its campaign's entries once per lease.
func (b *Binding) Entries() map[uint64][]core.Report {
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	want := makeKey(b.id, 0).id
	out := make(map[uint64][]core.Report)
	for k, reports := range b.c.entries {
		if k.id == want {
			out[k.fpr] = append([]core.Report(nil), reports...)
		}
	}
	return out
}

// Add admits one checkpoint line of the campaign, in the order the
// campaign recorded its lines. The first line carrying a fingerprint
// stores its class — the line and its reports, stamped with the campaign
// identity — unless the line carries a PostFailureFault: it is the line of
// the class's representative, which comes before any member's (core puts
// a faulted post-run's fault on its own line even when already reported,
// and the members of a dirty class carry no fingerprint). Later lines of
// the class change nothing: pruned members, cache hits, and a resumed
// run's second representative, whose reports omit what its checkpoint
// seeded. So a failed store is not retried with a member's empty report
// list either. Lines without a fingerprint (summaries, -no-prune runs,
// members of dirty classes) are skipped. A store failure is returned and
// degrades to later misses: the entry is not installed.
func (b *Binding) Add(line ckpt.Line) error {
	if line.FPrint == 0 {
		return nil
	}
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	if b.settled[line.FPrint] {
		return nil
	}
	b.settled[line.FPrint] = true
	for _, rep := range line.Reports {
		if rep.Class == core.PostFailureFault {
			return nil
		}
	}
	k := makeKey(b.id, line.FPrint)
	if _, ok := b.c.entries[k]; ok {
		return nil
	}
	line.ID = b.id
	if err := b.c.log.Append(line); err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	b.c.entries[k] = append([]core.Report(nil), line.Reports...)
	return nil
}
