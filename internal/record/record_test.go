package record

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/shadow"
	"github.com/pmemgo/xfdetector/internal/trace"
)

const testPool = 1 << 16

// buildArtifact writes a small synthetic artifact — three failure points,
// checkpoints at 0 and 2 — and returns its encoded bytes.
func buildArtifact(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, 0xfeed, testPool, 2)
	sh := shadow.NewPM(testPool)
	tr := trace.New()
	page := func(idx int, fill byte) pmem.DeltaPage {
		d := pmem.DeltaPage{Index: idx, Data: make([]byte, pmem.PageSize)}
		for i := range d.Data {
			d.Data[i] = fill
		}
		return d
	}
	for fp, in := range [][]pmem.DeltaPage{
		{page(0, 1)},
		{page(0, 2), page(3, 3)},
		nil,
	} {
		tr.Append(trace.Entry{Kind: trace.Write, Addr: uint64(fp) * 64, Size: 8})
		if err := w.OnFailurePoint(fp, tr.Len(), fp+1, uint64(100+fp), in, sh); err != nil {
			t.Fatal(err)
		}
	}
	perf := []Report{{FailurePoint: -1, PerfKind: 1, Message: "redundant flush"}}
	if err := w.Finish("Synthetic", tr, perf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestArtifactRoundTrip(t *testing.T) {
	data := buildArtifact(t)
	a, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if a.Identity != 0xfeed || a.PoolSize != testPool || a.Target != "Synthetic" {
		t.Errorf("header = identity %x pool %d target %q", a.Identity, a.PoolSize, a.Target)
	}
	if a.Trace.Len() != 3 {
		t.Errorf("embedded trace has %d entries, want 3", a.Trace.Len())
	}
	if len(a.Perf) != 1 || a.Perf[0].Message != "redundant flush" {
		t.Errorf("perf reports = %+v", a.Perf)
	}
	if len(a.FPs) != 3 {
		t.Fatalf("artifact has %d failure points, want 3", len(a.FPs))
	}
	for i, fp := range a.FPs {
		if fp.Fingerprint != uint64(100+i) {
			t.Errorf("failure point %d fingerprint = %d, want %d", i, fp.Fingerprint, 100+i)
		}
	}
	if len(a.FPs[1].Delta) != 2 || a.FPs[1].Delta[1].Index != 3 || a.FPs[1].Delta[1].Data[0] != 3 {
		t.Errorf("failure point 1 delta = %d page(s)", len(a.FPs[1].Delta))
	}
	// Checkpoint interval 2 over failure points 0..2 -> checkpoints at 0, 2.
	if len(a.Checkpoints) != 2 || a.Checkpoints[0].FP != 0 || a.Checkpoints[1].FP != 2 {
		t.Fatalf("checkpoints = %+v, want at failure points 0 and 2", a.Checkpoints)
	}
	if _, err := a.OpenShadow(&a.Checkpoints[1]); err != nil {
		t.Errorf("reopening checkpoint shadow: %v", err)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("XFDT----not-an-artifact"))); err != ErrBadMagic {
		t.Errorf("Read on a non-artifact = %v, want ErrBadMagic", err)
	}
	// A truncated artifact must error, not return a partial decode.
	data := buildArtifact(t)
	if _, err := Read(bytes.NewReader(data[:len(data)-7])); err == nil {
		t.Error("Read accepted a truncated artifact")
	}
}

// TestReadRejectsVersion1: a version-1 artifact carries fingerprints of
// the page-granular scheme, which no replay can reproduce; it is refused
// at the header, not at the replay's fingerprint tripwire.
func TestReadRejectsVersion1(t *testing.T) {
	data := buildArtifact(t)
	binary.LittleEndian.PutUint32(data[4:8], 1)
	_, err := Read(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "unsupported artifact version 1") {
		t.Fatalf("Read of a version-1 artifact = %v, want an unsupported-version error", err)
	}
}

func TestBestCheckpoint(t *testing.T) {
	a, err := Read(bytes.NewReader(buildArtifact(t)))
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoints live at failure points 0 and 2; the pick must be the
	// latest one STRICTLY below the first dispatched failure point.
	for _, tc := range []struct{ startFP, want int }{
		{0, -1}, // nothing below 0: replay from the trace head
		{1, 0},
		{2, 0},
		{3, 2},
		{99, 2},
	} {
		ck := a.BestCheckpoint(tc.startFP)
		switch {
		case tc.want < 0 && ck != nil:
			t.Errorf("BestCheckpoint(%d) = FP %d, want none", tc.startFP, ck.FP)
		case tc.want >= 0 && (ck == nil || ck.FP != tc.want):
			t.Errorf("BestCheckpoint(%d) = %+v, want FP %d", tc.startFP, ck, tc.want)
		}
	}
}

func TestPoolAtComposesLastWriterWins(t *testing.T) {
	a, err := Read(bytes.NewReader(buildArtifact(t)))
	if err != nil {
		t.Fatal(err)
	}
	// Page 0 is dirtied at failure points 0 (fill 1) and 1 (fill 2); the
	// composed image at or past 1 must carry the later version.
	byIdx := func(fp int) map[int]byte {
		m := map[int]byte{}
		for _, d := range a.PoolAt(fp) {
			m[d.Index] = d.Data[0]
		}
		return m
	}
	if got := byIdx(0); !reflect.DeepEqual(got, map[int]byte{0: 1}) {
		t.Errorf("PoolAt(0) fills = %v, want page 0 -> 1", got)
	}
	if got := byIdx(2); !reflect.DeepEqual(got, map[int]byte{0: 2, 3: 3}) {
		t.Errorf("PoolAt(2) fills = %v, want page 0 -> 2, page 3 -> 3", got)
	}
}

func TestOutOfOrderFailurePointRejected(t *testing.T) {
	w := NewWriter(&bytes.Buffer{}, 1, testPool, 0)
	sh := shadow.NewPM(testPool)
	if err := w.OnFailurePoint(1, 0, 0, 0, nil, sh); err == nil {
		t.Error("out-of-order failure point accepted")
	}
}
