// Package record implements recorded-campaign artifacts: one pre-failure
// pass serialized as the binary trace plus periodic engine checkpoints at
// failure-point boundaries, so that shards, resumed campaigns, and -serve
// workers can fast-forward to their first owned failure point instead of
// re-executing the identical deterministic pre-failure stage.
//
// The container ("XFDR") holds, in order:
//
//   - a header with a version and the campaign's program-identity hash
//     (the vcache identity of the CLI flags that shape the execution), so
//     a stale artifact recorded for a different program is rejected before
//     it can skew detection;
//   - the complete pre-failure trace in the XFDT wire format
//     (internal/trace), the frontend/backend decoupling of §5.5;
//   - the pre-failure performance-bug reports, which a fast-forwarded
//     shard would otherwise lose with the skipped trace prefix;
//   - one record per failure point: the trace index just past its marker,
//     its crash-state fingerprint (the PR 6 pruning identity, doubling as
//     a replay-integrity tripwire), and the page-granular pool delta the
//     execution dirtied since the previous failure point (PR 4 dirty
//     bitmap) — consecutive deltas compose into the pool image at any
//     failure point over a zeroed pool;
//   - periodic engine checkpoints: the serialized sparse shadow
//     (shadow.WriteState — pages, pendingLines and commit variables; the
//     fingerprint cache is recomputed on restore) at every Nth failure
//     point, from which a replay jumps straight to the nearest checkpoint
//     at or below its first owned failure point and replays only the
//     trace delta.
//
// Version 2 fences the fingerprint scheme: fingerprints hash 64-byte line
// hashes, so the values a version-1 artifact carries would trip the replay
// tripwire as if its checkpoints were corrupt. A version-1 artifact is
// refused at the header instead.
package record

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/shadow"
	"github.com/pmemgo/xfdetector/internal/trace"
)

const (
	// Magic is the artifact container magic ("XFDR"), distinguishing
	// recorded campaigns from bare XFDT traces.
	Magic   = 0x52444658
	version = 2

	// DefaultCheckpointEvery is the default engine-checkpoint interval in
	// failure points.
	DefaultCheckpointEvery = 8
)

// ErrBadMagic is returned when the stream is not an XFDR artifact.
var ErrBadMagic = errors.New("record: not a recorded-campaign artifact (bad magic)")

// staleCheckpointForTest makes the Writer reuse checkpoint 0's serialized
// engine state for every later checkpoint — correct failure point and
// trace index, stale shadow — so the differential battery can prove the
// replay-side fingerprint tripwire catches a corrupt or stale checkpoint.
var staleCheckpointForTest = false

// SetStaleCheckpointForTest toggles the stale-checkpoint mutant.
func SetStaleCheckpointForTest(on bool) { staleCheckpointForTest = on }

// Report mirrors core.Report without importing internal/core (core imports
// this package). The recording run's pre-failure performance reports ride
// in the artifact so a checkpoint-jumped replay still reports them.
type Report struct {
	Class        int
	Addr         uint64
	Size         uint64
	ReaderIP     string
	WriterIP     string
	FailurePoint int
	PerfKind     int
	Message      string
}

// FPRecord is the per-failure-point record.
type FPRecord struct {
	// TraceIdx is the number of trace entries recorded up to and including
	// this failure point's marker.
	TraceIdx int
	// Fingerprint is the crash-state fingerprint of the shadow at this
	// failure point (shadow.CrashFingerprint).
	Fingerprint uint64
	// Delta holds the pool pages dirtied since the previous failure point.
	Delta []pmem.DeltaPage
}

// Checkpoint is one serialized engine checkpoint.
type Checkpoint struct {
	// FP is the failure point the checkpoint was taken at: the state
	// reflects the execution just after FP's marker was recorded.
	FP int
	// TraceIdx is the number of trace entries consumed at that state.
	TraceIdx int
	// OpsEver is the runner's cumulative PM-operation count at that state
	// (the final-failure-point injection guard).
	OpsEver int
	// Shadow is the shadow.WriteState blob.
	Shadow []byte
}

// Writer accumulates one recording pass and serializes the container to
// dst on Finish. Methods are called from the pre-failure thread only.
type Writer struct {
	dst      io.Writer
	identity uint64
	poolSize uint64
	every    int
	fps      []FPRecord
	cks      []Checkpoint
}

// NewWriter returns a Writer that will serialize a campaign with the given
// program identity and pool size to dst, taking an engine checkpoint every
// checkpointEvery failure points (0 means DefaultCheckpointEvery).
func NewWriter(dst io.Writer, identity, poolSize uint64, checkpointEvery int) *Writer {
	if checkpointEvery <= 0 {
		checkpointEvery = DefaultCheckpointEvery
	}
	return &Writer{dst: dst, identity: identity, poolSize: poolSize, every: checkpointEvery}
}

// OnFailurePoint records failure point fpID: its trace position,
// fingerprint, and pool delta, plus an engine checkpoint at every Nth
// point. Must be called once per failure point, in order.
func (w *Writer) OnFailurePoint(fpID, traceIdx, opsEver int, fingerprint uint64, delta []pmem.DeltaPage, sh *shadow.PM) error {
	if fpID != len(w.fps) {
		return fmt.Errorf("record: failure point %d recorded out of order (have %d)", fpID, len(w.fps))
	}
	w.fps = append(w.fps, FPRecord{TraceIdx: traceIdx, Fingerprint: fingerprint, Delta: delta})
	if fpID%w.every != 0 {
		return nil
	}
	ck := Checkpoint{FP: fpID, TraceIdx: traceIdx, OpsEver: opsEver}
	if staleCheckpointForTest && len(w.cks) > 0 {
		ck.Shadow = w.cks[0].Shadow
		w.cks = append(w.cks, ck)
		return nil
	}
	var buf bytes.Buffer
	if err := sh.WriteState(&buf); err != nil {
		return fmt.Errorf("record: checkpoint at failure point %d: %w", fpID, err)
	}
	ck.Shadow = buf.Bytes()
	w.cks = append(w.cks, ck)
	return nil
}

// FailurePoints returns the number of failure points recorded so far.
func (w *Writer) FailurePoints() int { return len(w.fps) }

// Finish writes the complete container to the Writer's destination.
func (w *Writer) Finish(target string, tr *trace.Trace, perf []Report) error {
	bw := bufio.NewWriterSize(w.dst, 1<<16)
	var b [8]byte
	wu32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(b[:4], v)
		_, err := bw.Write(b[:4])
		return err
	}
	wu64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(b[:8], v)
		_, err := bw.Write(b[:8])
		return err
	}
	wstr := func(s string) error {
		if err := wu32(uint32(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	fail := func(err error) error { return fmt.Errorf("record: writing artifact: %w", err) }

	if err := wu32(Magic); err != nil {
		return fail(err)
	}
	if err := wu32(version); err != nil {
		return fail(err)
	}
	if err := wu64(w.identity); err != nil {
		return fail(err)
	}
	if err := wu64(w.poolSize); err != nil {
		return fail(err)
	}
	if err := wstr(target); err != nil {
		return fail(err)
	}
	if _, err := tr.WriteTo(bw); err != nil {
		return fail(err)
	}

	if err := wu32(uint32(len(perf))); err != nil {
		return fail(err)
	}
	for _, r := range perf {
		if err := wu32(uint32(r.Class)); err != nil {
			return fail(err)
		}
		if err := wu64(r.Addr); err != nil {
			return fail(err)
		}
		if err := wu64(r.Size); err != nil {
			return fail(err)
		}
		if err := wstr(r.ReaderIP); err != nil {
			return fail(err)
		}
		if err := wstr(r.WriterIP); err != nil {
			return fail(err)
		}
		if err := wu64(uint64(int64(r.FailurePoint))); err != nil {
			return fail(err)
		}
		if err := wu32(uint32(r.PerfKind)); err != nil {
			return fail(err)
		}
		if err := wstr(r.Message); err != nil {
			return fail(err)
		}
	}

	if err := wu32(uint32(len(w.fps))); err != nil {
		return fail(err)
	}
	for _, fp := range w.fps {
		if err := wu64(uint64(fp.TraceIdx)); err != nil {
			return fail(err)
		}
		if err := wu64(fp.Fingerprint); err != nil {
			return fail(err)
		}
		if err := wu32(uint32(len(fp.Delta))); err != nil {
			return fail(err)
		}
		for _, d := range fp.Delta {
			if err := wu32(uint32(d.Index)); err != nil {
				return fail(err)
			}
			if err := wu32(uint32(len(d.Data))); err != nil {
				return fail(err)
			}
			if _, err := bw.Write(d.Data); err != nil {
				return fail(err)
			}
		}
	}

	if err := wu32(uint32(len(w.cks))); err != nil {
		return fail(err)
	}
	for _, ck := range w.cks {
		if err := wu64(uint64(ck.FP)); err != nil {
			return fail(err)
		}
		if err := wu64(uint64(ck.TraceIdx)); err != nil {
			return fail(err)
		}
		if err := wu64(uint64(ck.OpsEver)); err != nil {
			return fail(err)
		}
		if err := wu64(uint64(len(ck.Shadow))); err != nil {
			return fail(err)
		}
		if _, err := bw.Write(ck.Shadow); err != nil {
			return fail(err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	return nil
}

// Artifact is a decoded recorded campaign.
type Artifact struct {
	Identity    uint64
	PoolSize    uint64
	Target      string
	Trace       *trace.Trace
	Perf        []Report
	FPs         []FPRecord
	Checkpoints []Checkpoint
}

// Load reads an artifact from a file.
func Load(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	defer f.Close()
	a, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("record: reading %s: %w", path, err)
	}
	return a, nil
}

// Read decodes an artifact from r.
func Read(r io.Reader) (*Artifact, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var b [8]byte
	ru32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, b[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:4]), nil
	}
	ru64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, b[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:8]), nil
	}
	rstr := func() (string, error) {
		n, err := ru32()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("string length %d too large", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	m, err := ru32()
	if err != nil {
		return nil, err
	}
	if m != Magic {
		return nil, ErrBadMagic
	}
	v, err := ru32()
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("record: unsupported artifact version %d", v)
	}
	a := &Artifact{Trace: trace.New()}
	if a.Identity, err = ru64(); err != nil {
		return nil, err
	}
	if a.PoolSize, err = ru64(); err != nil {
		return nil, err
	}
	if a.Target, err = rstr(); err != nil {
		return nil, err
	}
	if _, err := a.Trace.ReadFrom(br); err != nil {
		return nil, err
	}

	nPerf, err := ru32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nPerf; i++ {
		var rep Report
		var c uint32
		if c, err = ru32(); err != nil {
			return nil, err
		}
		rep.Class = int(c)
		if rep.Addr, err = ru64(); err != nil {
			return nil, err
		}
		if rep.Size, err = ru64(); err != nil {
			return nil, err
		}
		if rep.ReaderIP, err = rstr(); err != nil {
			return nil, err
		}
		if rep.WriterIP, err = rstr(); err != nil {
			return nil, err
		}
		var fp uint64
		if fp, err = ru64(); err != nil {
			return nil, err
		}
		rep.FailurePoint = int(int64(fp))
		if c, err = ru32(); err != nil {
			return nil, err
		}
		rep.PerfKind = int(c)
		if rep.Message, err = rstr(); err != nil {
			return nil, err
		}
		a.Perf = append(a.Perf, rep)
	}

	nFP, err := ru32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nFP; i++ {
		var fp FPRecord
		var v64 uint64
		if v64, err = ru64(); err != nil {
			return nil, err
		}
		fp.TraceIdx = int(v64)
		if fp.Fingerprint, err = ru64(); err != nil {
			return nil, err
		}
		var nDelta uint32
		if nDelta, err = ru32(); err != nil {
			return nil, err
		}
		for j := uint32(0); j < nDelta; j++ {
			var d pmem.DeltaPage
			var idx, ln uint32
			if idx, err = ru32(); err != nil {
				return nil, err
			}
			if ln, err = ru32(); err != nil {
				return nil, err
			}
			if ln > pmem.PageSize {
				return nil, fmt.Errorf("record: delta page of %d bytes", ln)
			}
			d.Index = int(idx)
			d.Data = make([]byte, ln)
			if _, err = io.ReadFull(br, d.Data); err != nil {
				return nil, err
			}
			fp.Delta = append(fp.Delta, d)
		}
		a.FPs = append(a.FPs, fp)
	}

	nCk, err := ru32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nCk; i++ {
		var ck Checkpoint
		var v64 uint64
		if v64, err = ru64(); err != nil {
			return nil, err
		}
		ck.FP = int(v64)
		if v64, err = ru64(); err != nil {
			return nil, err
		}
		ck.TraceIdx = int(v64)
		if v64, err = ru64(); err != nil {
			return nil, err
		}
		ck.OpsEver = int(v64)
		if v64, err = ru64(); err != nil {
			return nil, err
		}
		if v64 > 1<<32 {
			return nil, fmt.Errorf("record: checkpoint blob of %d bytes", v64)
		}
		ck.Shadow = make([]byte, v64)
		if _, err = io.ReadFull(br, ck.Shadow); err != nil {
			return nil, err
		}
		a.Checkpoints = append(a.Checkpoints, ck)
	}
	return a, nil
}

// BestCheckpoint returns the latest checkpoint strictly below startFP, or
// nil when none qualifies (the replay then starts from the trace head).
// Checkpoint state reflects the execution just after its failure point, so
// jumping to it is sound only when every failure point up to and including
// ck.FP needs no dispatch on this shard — which "strictly below the first
// owned, uncovered failure point" guarantees.
func (a *Artifact) BestCheckpoint(startFP int) *Checkpoint {
	var best *Checkpoint
	for i := range a.Checkpoints {
		ck := &a.Checkpoints[i]
		if ck.FP < startFP && (best == nil || ck.FP > best.FP) {
			best = ck
		}
	}
	return best
}

// OpenShadow reconstructs the checkpoint's shadow PM.
func (a *Artifact) OpenShadow(ck *Checkpoint) (*shadow.PM, error) {
	sh, err := shadow.ReadState(bytes.NewReader(ck.Shadow))
	if err != nil {
		return nil, fmt.Errorf("record: checkpoint at failure point %d: %w", ck.FP, err)
	}
	return sh, nil
}

// PoolAt composes the pool image at failure point fp: the last version of
// every page dirtied by deltas 0..fp, to be applied over a zeroed pool.
func (a *Artifact) PoolAt(fp int) []pmem.DeltaPage {
	last := map[int]pmem.DeltaPage{}
	for i := 0; i <= fp && i < len(a.FPs); i++ {
		for _, d := range a.FPs[i].Delta {
			last[d.Index] = d
		}
	}
	out := make([]pmem.DeltaPage, 0, len(last))
	for _, d := range last {
		out = append(out, d)
	}
	return out
}
