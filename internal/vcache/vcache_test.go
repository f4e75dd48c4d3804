package vcache

import (
	"os"
	"path/filepath"
	"testing"

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

func TestStoreLookupReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.cache")
	reports := []core.Report{{Class: core.CrossFailureRace, ReaderIP: "r.go:1", WriterIP: "w.go:2", FailurePoint: 3}}

	c := mustOpen(t, path)
	if _, ok := c.Lookup(1, 42); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.Store(1, 42, reports); err != nil {
		t.Fatal(err)
	}
	if err := c.Store(1, 42, nil); err != nil {
		t.Fatal(err) // duplicate store is a no-op
	}
	if err := c.Store(1, 43, nil); err != nil {
		t.Fatal(err) // empty report sets are cacheable verdicts too
	}
	got, ok := c.Lookup(1, 42)
	if !ok || len(got) != 1 || got[0].DedupKey() != reports[0].DedupKey() {
		t.Fatalf("Lookup(1,42) = %v, %v", got, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	c.Close()

	// Reopen: verdicts must survive the process.
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
}

func TestIdentitySeparatesPrograms(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.cache")
	c := mustOpen(t, path)
	if err := c.Store(Identity("program-a"), 7, nil); err != nil {
		t.Fatal(err)
	}
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

func TestTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.cache")
	c := mustOpen(t, path)
	if err := c.Store(1, 42, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Simulate a crash mid-append: a torn, unterminated trailing line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":1,"fpr":99,"repo`); err != nil {
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
	// The reopened cache must still be appendable past the torn bytes.
	if err := c2.Store(1, 100, nil); err != nil {
		t.Fatal(err)
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

// TestBindRoundTrip drives the VerdictSource adapter the way a runner
// does: the first campaign misses and stores its clean representative's
// reports, a second campaign of the same program hits them, and another
// program's identity shares nothing — neither through Lookup nor through
// Entries, the daemon's per-lease handout.
func TestBindRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.cache")
	c := mustOpen(t, path)
	id := Identity("prog")
	src := c.Bind(id)

	if _, ok := src.Lookup(5); ok {
		t.Fatal("cold Lookup hit")
	}
	rep := core.Report{Class: core.CrossFailureSemantic, ReaderIP: "x.go:9"}
	src.Store(5, []core.Report{rep})

	reports, ok := c.Bind(id).Lookup(5)
	if !ok || len(reports) != 1 || reports[0].DedupKey() != rep.DedupKey() {
		t.Fatalf("warm Lookup(5) = %v, %v; want the stored report", reports, ok)
	}
	if _, ok := c.Bind(Identity("other")).Lookup(5); ok {
		t.Fatal("another program's Lookup hit")
	}
	if got := c.Entries(id); len(got) != 1 || len(got[5]) != 1 {
		t.Fatalf("Entries(id) = %v, want class 5 with its report", got)
	}
	if got := c.Entries(Identity("other")); len(got) != 0 {
		t.Fatalf("Entries(other) = %v, want none", got)
	}
}

// TestIgnoreIdentityMutant sanity-checks the seeded stale-cache mutant
// hook itself (the differential battery in internal/fuzzgen proves it is
// caught end to end).
func TestIgnoreIdentityMutant(t *testing.T) {
	SetIgnoreIdentityForTest(true)
	defer SetIgnoreIdentityForTest(false)
	c := mustOpen(t, filepath.Join(t.TempDir(), "verdicts.cache"))
	if err := c.Store(1, 7, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(2, 7); !ok {
		t.Fatal("mutant off? cross-identity lookup should hit under the mutant")
	}
	if got := c.Entries(2); len(got) != 1 {
		t.Fatalf("mutant off? Entries(2) = %v, want the other identity's entry", got)
	}
}
