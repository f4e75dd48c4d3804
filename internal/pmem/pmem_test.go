package pmem

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/pmemgo/xfdetector/internal/trace"
)

// recorder collects entries for assertions.
type recorder struct{ entries []trace.Entry }

func (r *recorder) Record(e trace.Entry) { r.entries = append(r.entries, e) }

func (r *recorder) kinds() []trace.Kind {
	var ks []trace.Kind
	for _, e := range r.entries {
		ks = append(ks, e.Kind)
	}
	return ks
}

func TestLineMath(t *testing.T) {
	cases := []struct{ in, down, up uint64 }{
		{0, 0, 0}, {1, 0, 64}, {63, 0, 64}, {64, 64, 64}, {65, 64, 128}, {130, 128, 192},
	}
	for _, c := range cases {
		if LineDown(c.in) != c.down {
			t.Errorf("LineDown(%d) = %d, want %d", c.in, LineDown(c.in), c.down)
		}
		if LineUp(c.in) != c.up {
			t.Errorf("LineUp(%d) = %d, want %d", c.in, LineUp(c.in), c.up)
		}
	}
}

// TestLineMathProperty: LineDown/LineUp bracket every address within one
// line (property-based).
func TestLineMathProperty(t *testing.T) {
	f := func(a uint64) bool {
		a %= 1 << 50
		d, u := LineDown(a), LineUp(a)
		return d%CacheLineSize == 0 && u%CacheLineSize == 0 &&
			d <= a && a <= u && u-d <= CacheLineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewRoundsToLines(t *testing.T) {
	p := New("x", 100)
	if p.Size() != 128 {
		t.Fatalf("size = %d, want 128", p.Size())
	}
	if p.Name() != "x" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestTypedAccessRoundTrip(t *testing.T) {
	p := New("x", 4096)
	p.Store8(0, 0xAB)
	p.Store16(8, 0xBEEF)
	p.Store32(16, 0xDEADBEEF)
	p.Store64(24, 0x0123456789ABCDEF)
	if p.Load8(0) != 0xAB || p.Load16(8) != 0xBEEF ||
		p.Load32(16) != 0xDEADBEEF || p.Load64(24) != 0x0123456789ABCDEF {
		t.Fatal("typed round trip failed")
	}
	data := []byte("persistent memory")
	p.Store(100, data)
	got := make([]byte, len(data))
	p.Load(100, got)
	if !bytes.Equal(data, got) {
		t.Fatalf("bulk round trip: %q", got)
	}
}

// TestStoreLoadProperty: arbitrary in-bounds writes read back exactly
// (property-based).
func TestStoreLoadProperty(t *testing.T) {
	p := New("prop", 1<<16)
	f := func(off uint64, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		off %= p.Size() - uint64(len(data))%p.Size()
		if off+uint64(len(data)) > p.Size() {
			return true
		}
		p.Store(off, data)
		got := make([]byte, len(data))
		p.Load(off, got)
		return bytes.Equal(data, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMemsetAndCopy(t *testing.T) {
	p := New("x", 4096)
	p.Memset(64, 0x7F, 100)
	for i := uint64(64); i < 164; i++ {
		if p.Load8(i) != 0x7F {
			t.Fatalf("memset byte %d = %#x", i, p.Load8(i))
		}
	}
	p.Store(200, []byte("hello"))
	p.Copy(300, 200, 5)
	got := make([]byte, 5)
	p.Load(300, got)
	if string(got) != "hello" {
		t.Fatalf("copy = %q", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	p := New("x", 128)
	cases := []func(){
		func() { p.Store64(128, 1) },
		func() { p.Load64(121) },
		func() { p.Store(120, make([]byte, 16)) },
		func() { p.CLWB(130, 8) },
		func() { p.Memset(0, 0, 129) },
		func() { p.Copy(0, 120, 16) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("case %d: no panic", i)
					return
				}
				if _, ok := r.(*RangeError); !ok {
					t.Errorf("case %d: panic %v is not *RangeError", i, r)
				}
			}()
			fn()
		}()
	}
}

func TestRangeErrorMessage(t *testing.T) {
	err := &RangeError{Pool: "p", Op: "store", Addr: 0x80, Size: 8, Len: 0x80}
	if !strings.Contains(err.Error(), "store") || !strings.Contains(err.Error(), `"p"`) {
		t.Fatalf("message = %q", err.Error())
	}
}

func TestSnapshotAndFromImage(t *testing.T) {
	p := New("x", 256)
	p.Store64(0, 42)
	p.Store64(64, 43)
	img := p.Snapshot()
	p.Store64(0, 99) // must not affect the snapshot
	q := FromImage("copy", img)
	if q.Load64(0) != 42 || q.Load64(64) != 43 {
		t.Fatal("snapshot is not isolated")
	}
	if p.Load64(0) != 99 {
		t.Fatal("original lost its update")
	}
}

func TestTraceEmission(t *testing.T) {
	p := New("x", 4096)
	rec := &recorder{}
	p.SetSink(rec)
	p.Store64(0, 1)
	p.Load64(0)
	p.CLWB(0, 8)
	p.SFence()
	p.NTStore(64, []byte{1, 2, 3})
	want := []trace.Kind{trace.Write, trace.Read, trace.CLWB, trace.SFence, trace.NTStore}
	got := rec.kinds()
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kind[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// CLWB entries are line-rounded.
	if e := rec.entries[2]; e.Addr != 0 || e.Size != 64 {
		t.Errorf("CLWB range = [%#x, %#x)", e.Addr, e.Addr+e.Size)
	}
	// IPs point into this test file.
	if !strings.Contains(rec.entries[0].IP, "pmem_test.go") {
		t.Errorf("IP = %q", rec.entries[0].IP)
	}
}

func TestNilSinkIsSilent(t *testing.T) {
	p := New("x", 128)
	p.Store64(0, 1) // must not panic with no sink
	p.SFence()
}

func TestPersistIsCLWBPlusFence(t *testing.T) {
	p := New("x", 4096)
	rec := &recorder{}
	p.SetSink(rec)
	p.Persist(10, 100)
	want := []trace.Kind{trace.CLWB, trace.SFence}
	got := rec.kinds()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("persist kinds = %v", got)
	}
	if e := rec.entries[0]; e.Addr != 0 || e.Size != 128 {
		t.Errorf("persist flush range = [%#x, %#x)", e.Addr, e.Addr+e.Size)
	}
}

func TestFenceHookRunsBeforeFenceEntry(t *testing.T) {
	p := New("x", 128)
	rec := &recorder{}
	p.SetSink(rec)
	hooked := -1
	p.SetFenceHook(func() { hooked = len(rec.entries) })
	p.Store64(0, 1)
	p.CLWB(0, 8)
	p.SFence()
	if hooked != 2 {
		t.Fatalf("hook saw %d entries; the SFence entry must not precede it", hooked)
	}
}

func TestStageAndFlags(t *testing.T) {
	p := New("x", 128)
	rec := &recorder{}
	p.SetSink(rec)
	p.SetStage(trace.PostFailure)
	p.SetTID(7)
	p.EnterLibrary()
	p.EnterSkipDetection()
	p.Store64(0, 1)
	p.ExitSkipDetection()
	p.ExitLibrary()
	p.Store64(8, 2)
	a, b := rec.entries[0], rec.entries[1]
	if a.Stage != trace.PostFailure || a.TID != 7 || !a.InLibrary || !a.SkipDetection {
		t.Errorf("flagged entry = %+v", a)
	}
	if b.InLibrary || b.SkipDetection {
		t.Errorf("plain entry = %+v", b)
	}
	if !p.InLibrary() {
		// after exits, not in library
	}
}

func TestUnbalancedRegionPanics(t *testing.T) {
	p := New("x", 128)
	for i, fn := range []func(){p.ExitLibrary, p.ExitSkipDetection} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: unbalanced exit did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestAnnounceEntry: AnnounceEntry keeps e's kind and ranges, and captures
// the caller's location for a kind a consumer reads (TX_ADD) but not for
// one nothing reads (REG_COMMIT_RANGE).
func TestAnnounceEntry(t *testing.T) {
	p := New("x", 4096)
	rec := &recorder{}
	p.SetSink(rec)
	p.AnnounceEntry(trace.Entry{Kind: trace.RegCommitRange, Addr: 0, Size: 8, Addr2: 64, Size2: 8})
	p.AnnounceEntry(trace.Entry{Kind: trace.TxAdd, Addr: 64, Size: 8})
	if e := rec.entries[0]; e.Kind != trace.RegCommitRange || e.Addr2 != 64 || e.Size2 != 8 {
		t.Fatalf("announced entry = %+v", e)
	} else if e.IP != "" {
		t.Errorf("REG_COMMIT_RANGE entry carries IP %q that nothing reads", e.IP)
	}
	if e := rec.entries[1]; e.Kind != trace.TxAdd || e.Addr != 64 || e.Size != 8 {
		t.Fatalf("announced entry = %+v", e)
	} else if !strings.Contains(e.IP, "pmem_test.go") {
		t.Errorf("TX_ADD entry IP = %q, want the caller's line", e.IP)
	}
}

// TestSnapshotMatchesWritesProperty: a random write sequence followed by
// Snapshot equals the same sequence applied to a plain byte slice
// (property-based model check of the device).
func TestSnapshotMatchesWritesProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := New("model", 4096)
		model := make([]byte, p.Size())
		for i := 0; i < int(n); i++ {
			off := r.Uint64() % (p.Size() - 8)
			switch r.Intn(4) {
			case 0:
				v := r.Uint64()
				p.Store64(off, v)
				for j := 0; j < 8; j++ {
					model[off+uint64(j)] = byte(v >> (8 * j))
				}
			case 1:
				b := byte(r.Intn(256))
				ln := r.Uint64()%64 + 1
				if off+ln > p.Size() {
					ln = p.Size() - off
				}
				p.Memset(off, b, ln)
				for j := uint64(0); j < ln; j++ {
					model[off+j] = b
				}
			case 2:
				p.CLWB(off, 8) // flushes must not change contents
			case 3:
				p.SFence()
			}
		}
		return bytes.Equal(p.Snapshot(), model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
