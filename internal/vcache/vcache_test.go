package vcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
)

func mustOpen(t *testing.T, path string) *Cache {
	t.Helper()
	c, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// mustAdd admits the line of failure point fp of class fpr to b.
func mustAdd(t *testing.T, b *Binding, fp int, fpr uint64, reports ...core.Report) {
	t.Helper()
	if err := b.Add(ckpt.Line{FP: fp, FPrint: fpr, Reports: reports}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreLookupReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.cache")
	reports := []core.Report{{Class: core.CrossFailureRace, ReaderIP: "r.go:1", WriterIP: "w.go:2", FailurePoint: 3}}

	c := mustOpen(t, path)
	if _, ok := c.Lookup(1, 42); ok {
		t.Fatal("empty cache reported a hit")
	}
	b := c.Bind(1)
	mustAdd(t, b, 3, 42, reports...)
	mustAdd(t, c.Bind(1), 4, 42) // another campaign's line of a cached class is a no-op
	mustAdd(t, b, 5, 43)         // empty report sets are cacheable verdicts too
	got, ok := c.Lookup(1, 42)
	if !ok || len(got) != 1 || got[0].DedupKey() != reports[0].DedupKey() {
		t.Fatalf("Lookup(1,42) = %v, %v", got, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	c.Close()

	// Reopen: verdicts must survive the process, as checkpoint lines.
	c2 := mustOpen(t, path)
	if c2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", c2.Len())
	}
	got, ok = c2.Lookup(1, 42)
	if !ok || len(got) != 1 || got[0].DedupKey() != reports[0].DedupKey() {
		t.Fatalf("reopened Lookup(1,42) = %v, %v", got, ok)
	}
	if _, ok := c2.Lookup(1, 43); !ok {
		t.Fatal("reopened cache lost the empty-report verdict")
	}
	lines, err := ckpt.ReadFile(path)
	if err != nil || len(lines) != 2 || lines[0].FP != 3 || lines[0].ID != 1 || lines[0].FPrint != 42 {
		t.Fatalf("cache file holds %+v (err %v), want the representative's checkpoint line stamped with id 1 first", lines, err)
	}
}

func TestIdentitySeparatesPrograms(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.cache")
	c := mustOpen(t, path)
	mustAdd(t, c.Bind(Identity("program-a")), 0, 7)
	if _, ok := c.Lookup(Identity("program-b"), 7); ok {
		t.Fatal("a different identity shared the verdict")
	}
	if _, ok := c.Lookup(Identity("program-a"), 7); !ok {
		t.Fatal("the storing identity missed its own verdict")
	}
	if Identity("a", "bc") == Identity("ab", "c") {
		t.Fatal("Identity collides under part re-splitting")
	}
}

// TestTornTailThenTwoStores: a cache file ending in a torn entry — the
// append a crash interrupted — opens without it, and the next two stores
// land as whole lines: both hit after a reopen. Appending after the
// fragment instead would merge the first store into it and leave the file
// unopenable after the second.
func TestTornTailThenTwoStores(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.cache")
	c := mustOpen(t, path)
	mustAdd(t, c.Bind(1), 0, 42)
	c.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fp":1,"fpr":99,"id":1,"repo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2 := mustOpen(t, path)
	if c2.Len() != 1 {
		t.Fatalf("Len after torn tail = %d, want 1", c2.Len())
	}
	if _, ok := c2.Lookup(1, 99); ok {
		t.Fatal("torn entry resurrected")
	}
	b := c2.Bind(1)
	mustAdd(t, b, 2, 100)
	mustAdd(t, b, 3, 101)
	c2.Close()

	c3 := mustOpen(t, path)
	for _, fpr := range []uint64{42, 100, 101} {
		if _, ok := c3.Lookup(1, fpr); !ok {
			t.Errorf("class %d missed after the reopen", fpr)
		}
	}
	if c3.Len() != 3 {
		t.Errorf("reopened Len = %d, want 3", c3.Len())
	}
}

// TestLegacyCacheFileHits: a cache file written before entries were
// checkpoint lines — {"id","fpr","reports"} objects — still loads, its
// entries hit with their reports, and new entries append after them.
func TestLegacyCacheFileHits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.cache")
	legacy := `{"id":7,"fpr":42,"reports":[{"Class":0,"Addr":64,"Size":8,"ReaderIP":"r.go:1","WriterIP":"w.go:2","FailurePoint":9,"PerfKind":0,"Message":""}]}
{"id":7,"fpr":43}
`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, path)
	got, ok := c.Lookup(7, 42)
	if !ok || len(got) != 1 || got[0].ReaderIP != "r.go:1" || got[0].FailurePoint != 9 {
		t.Fatalf("legacy entry Lookup(7,42) = %v, %v; want its report", got, ok)
	}
	if _, ok := c.Lookup(7, 43); !ok {
		t.Fatal("legacy entry without reports missed")
	}
	mustAdd(t, c.Bind(7), 5, 44)
	c.Close()
	if c2 := mustOpen(t, path); c2.Len() != 3 {
		t.Errorf("reopened mixed-format cache holds %d entries, want 3", c2.Len())
	}
}

func TestMidFileCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.cache")
	if err := os.WriteFile(path, []byte("garbage\n{\"id\":1,\"fpr\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("mid-file corruption silently accepted")
	}
}

// TestBindingAdmission drives the one admission rule: only the first line
// of a campaign carrying a fingerprint decides its class — stored when it
// carries no PostFailureFault — and later lines of the class change
// nothing. Lookups and Entries, the daemon's per-lease handout, answer
// the campaign's own identity only.
func TestBindingAdmission(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.cache")
	c := mustOpen(t, path)
	id := Identity("prog")
	b := c.Bind(id)
	if _, ok := b.Lookup(5); ok {
		t.Fatal("cold Lookup hit")
	}
	rep := core.Report{Class: core.CrossFailureSemantic, ReaderIP: "x.go:9"}
	fault := core.Report{Class: core.PostFailureFault, Message: "post-failure stage crashed"}
	mustAdd(t, b, 0, 5, rep) // clean representative
	mustAdd(t, b, 1, 5)      // its pruned member
	mustAdd(t, b, 2, 9, fault)
	mustAdd(t, b, 3, 9, rep) // a later clean line of the faulted class
	mustAdd(t, b, 4, 0, rep) // no fingerprint
	if err := b.Add(ckpt.Line{FP: ckpt.SummaryFP, Total: 5}); err != nil {
		t.Fatal(err)
	}

	reports, ok := c.Bind(id).Lookup(5)
	if !ok || len(reports) != 1 || reports[0].DedupKey() != rep.DedupKey() {
		t.Fatalf("warm Lookup(5) = %v, %v; want the representative's report", reports, ok)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want class 5 only", c.Len())
	}
	if _, ok := c.Bind(Identity("other")).Lookup(5); ok {
		t.Fatal("another program's Lookup hit")
	}
	if got := b.Entries(); len(got) != 1 || len(got[5]) != 1 {
		t.Fatalf("Entries() = %v, want class 5 with its report", got)
	}
	if got := c.Bind(Identity("other")).Entries(); len(got) != 0 {
		t.Fatalf("another program's Entries() = %v, want none", got)
	}

	// A failed store settles the class all the same: the member line after
	// it must not cache the class with its empty report list instead.
	c.Close()
	if err := b.Add(ckpt.Line{FP: 5, FPrint: 13, Reports: []core.Report{rep}}); err == nil {
		t.Fatal("a store into a closed cache reported success")
	}
	c2 := mustOpen(t, path)
	b.c = c2
	mustAdd(t, b, 6, 13)
	if _, ok := c2.Lookup(id, 13); ok {
		t.Error("a member line cached its class after the representative's store failed")
	}
}

// TestDirtyClassesNeverCached: a representative whose post-run faults
// poisons its class, and a campaign feeding its lines to the binding
// caches nothing — a later campaign must run the class again.
func TestDirtyClassesNeverCached(t *testing.T) {
	target := core.Target{
		Name: "dirty-store",
		Pre: func(c *core.Ctx) error {
			p := c.Pool()
			for i := uint64(0); i < 6; i++ {
				p.Store64(i*64, i+1)
				p.Persist(i*64, 8)
			}
			return nil
		},
		Post: func(*core.Ctx) error { return errors.New("recovery refused the pool") },
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := mustOpen(t, filepath.Join(t.TempDir(), "verdicts.cache"))
			b := c.Bind(1)
			res, err := core.Run(core.Config{Workers: workers, Verdicts: b,
				OnPostRunComplete: func(fp int, fpr uint64, fresh []core.Report) {
					mustAdd(t, b, fp, fpr, fresh...)
				}}, target)
			if err != nil {
				t.Fatal(err)
			}
			if res.PostRuns == 0 || c.Len() != 0 {
				t.Errorf("%d post-run(s), %d cached class(es); want post-runs and none cached", res.PostRuns, c.Len())
			}
		})
	}
}

// TestIgnoreIdentityMutant sanity-checks the seeded stale-cache mutant
// hook itself (the differential battery in internal/fuzzgen proves it is
// caught end to end).
func TestIgnoreIdentityMutant(t *testing.T) {
	SetIgnoreIdentityForTest(true)
	defer SetIgnoreIdentityForTest(false)
	c := mustOpen(t, filepath.Join(t.TempDir(), "verdicts.cache"))
	mustAdd(t, c.Bind(1), 0, 7)
	if _, ok := c.Lookup(2, 7); !ok {
		t.Fatal("mutant off? cross-identity lookup should hit under the mutant")
	}
	if got := c.Bind(2).Entries(); len(got) != 1 {
		t.Fatalf("mutant off? Entries(2) = %v, want the other identity's entry", got)
	}
}
