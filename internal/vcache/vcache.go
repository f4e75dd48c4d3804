// Package vcache is the on-disk cross-campaign crash-state verdict cache.
//
// A campaign that resolves a crash-state class cleanly has proven something
// durable: any later campaign of the *identical program* reaching the same
// fingerprint will observe the same post-failure behaviour, so its post-run
// can be skipped and the class's reports re-seeded. The cache persists
// exactly those facts — one JSONL entry per (identity, fingerprint) pair,
// appended and fsynced as classes resolve, torn-tail tolerant on reload —
// and nothing else: dirty verdicts are value-bearing (fault messages quote
// data, abandonments depend on deadlines) and are never cached, so a repeat
// campaign re-executes them.
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
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

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

// entry is one cached clean verdict: the JSONL line format. Reports may be
// non-empty — a clean representative can still have observed races or
// semantic bugs, and a cache hit must re-seed them so the warm campaign's
// report set matches the cold one's byte for byte.
type entry struct {
	ID      uint64        `json:"id"`
	FPrint  uint64        `json:"fpr"`
	Reports []core.Report `json:"reports,omitempty"`
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

// Cache is one open verdict-cache file. Safe for concurrent use; every
// Store is appended and fsynced before it becomes visible to Lookup, so a
// crash mid-campaign loses at most the entry being written.
type Cache struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	entries map[key][]core.Report
}

// Open loads path (which need not exist) and opens it for appending.
// Like the checkpoint reader, a torn trailing line — the crash window of
// an append — is tolerated and dropped; corruption before the last line is
// an error, not data to silently skip.
func Open(path string) (*Cache, error) {
	c := &Cache{path: path, entries: make(map[key][]core.Report)}
	data, err := os.ReadFile(path)
	fresh := errors.Is(err, os.ErrNotExist)
	if err != nil && !fresh {
		return nil, fmt.Errorf("vcache: reading %s: %w", path, err)
	}
	if len(data) > 0 {
		if err := c.load(data); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("vcache: opening %s: %w", path, err)
	}
	if fresh {
		// A freshly created cache file is only durable once its directory
		// entry is: fsync the parent directory, or a crash can leave later
		// fsynced appends pointing into a file that never existed.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("vcache: syncing parent of %s: %w", path, err)
		}
	}
	c.f = f
	return c, nil
}

// syncDir fsyncs a directory so a just-created entry in it survives a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// load parses the JSONL image, tolerating only a torn final line.
func (c *Cache) load(data []byte) error {
	lines := splitLines(data)
	for i, raw := range lines {
		var e entry
		if err := json.Unmarshal(raw, &e); err != nil {
			if i == len(lines)-1 {
				return nil // torn tail: the entry was never durable
			}
			return fmt.Errorf("vcache: %s line %d: %w", c.path, i+1, err)
		}
		c.entries[makeKey(e.ID, e.FPrint)] = e.Reports
	}
	return nil
}

// splitLines splits on '\n', keeping a non-empty unterminated tail and
// dropping empty lines.
func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i := 0; i <= len(data); i++ {
		if i == len(data) || data[i] == '\n' {
			if i > start {
				out = append(out, data[start:i])
			}
			start = i + 1
		}
	}
	return out
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

// Store records a clean verdict, appending and fsyncing its entry unless
// the pair is already cached. Write failures are reported but leave the
// in-memory view consistent with the file (the entry is not installed), so
// a full disk degrades to cache misses, never to unreplayable state.
func (c *Cache) Store(id, fpr uint64, reports []core.Report) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := makeKey(id, fpr)
	if _, ok := c.entries[k]; ok {
		return nil
	}
	line, err := json.Marshal(entry{ID: id, FPrint: fpr, Reports: reports})
	if err != nil {
		return fmt.Errorf("vcache: encoding entry: %w", err)
	}
	if _, err := c.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("vcache: appending to %s: %w", c.path, err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("vcache: syncing %s: %w", c.path, err)
	}
	c.entries[k] = append([]core.Report(nil), reports...)
	return nil
}

// Len reports the number of cached verdicts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Close closes the backing file; the cache must not be used afterwards.
func (c *Cache) Close() error { return c.f.Close() }

// Bind adapts the cache to a core.VerdictSource for one campaign identity.
// Claim answers VerdictCached for cached classes and VerdictOwn otherwise
// (a standalone campaign has no cross-shard contention — the local class
// map already serializes members); Resolve stores clean verdicts and drops
// dirty ones.
func (c *Cache) Bind(id uint64) core.VerdictSource {
	return &boundCache{c: c, id: id}
}

type boundCache struct {
	c  *Cache
	id uint64
}

func (b *boundCache) Claim(fpr uint64) core.ClassClaim {
	if reports, ok := b.c.Lookup(b.id, fpr); ok {
		return core.ClassClaim{Verdict: core.VerdictCached, Reports: reports}
	}
	return core.ClassClaim{Verdict: core.VerdictOwn}
}

func (b *boundCache) Resolve(fpr uint64, clean bool, fresh []core.Report) {
	if !clean {
		return
	}
	if err := b.c.Store(b.id, fpr, fresh); err != nil {
		fmt.Fprintf(os.Stderr, "xfdetector: %v\n", err)
	}
}
