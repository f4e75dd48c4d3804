package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/record"
	"github.com/pmemgo/xfdetector/internal/shadow"
	"github.com/pmemgo/xfdetector/internal/trace"
	"github.com/pmemgo/xfdetector/internal/vcache"
)

// timed runs fn and adds its wall-clock seconds to layers under name.
func timed(layers samples, name string, fn func() error) error {
	start := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	layers.add(name, time.Since(start).Seconds())
	return nil
}

// artifactLayers drives the record, trace, shadow and pmem layers from one
// recorded artifact of this workload's program.
func (w *inproc) artifactLayers(path string, layers samples) error {
	var a *record.Artifact
	for i := 0; i < driverReps; i++ {
		a = nil
		runtime.GC() // an update-loop artifact decodes to ~300 MB
		if err := timed(layers, "record.load_s", func() (err error) {
			a, err = record.Load(path)
			return err
		}); err != nil {
			return err
		}
	}
	if len(a.FPs) == 0 {
		return fmt.Errorf("recorded artifact has no failure points")
	}

	var encoded []byte
	for i := 0; i < driverReps; i++ {
		var buf bytes.Buffer
		if err := timed(layers, "trace.encode_s", func() error {
			_, err := a.Trace.WriteTo(&buf)
			return err
		}); err != nil {
			return err
		}
		encoded = buf.Bytes()
		if err := timed(layers, "trace.decode_s", func() error {
			_, err := trace.New().ReadFrom(bytes.NewReader(encoded))
			return err
		}); err != nil {
			return err
		}
	}
	layers.add("trace.bytes", float64(len(encoded)))

	// Restore models a shard fast-forwarding to the middle of the campaign.
	mid := len(a.FPs) / 2
	for i := 0; i < driverReps; i++ {
		if err := timed(layers, "record.restore_s", func() error {
			ck := a.BestCheckpoint(mid)
			if ck == nil {
				return nil
			}
			sh, err := a.OpenShadow(ck)
			if err != nil {
				return err
			}
			sh.Release()
			a.PoolAt(ck.FP)
			return nil
		}); err != nil {
			return err
		}
	}

	for i := 0; i < driverReps; i++ {
		if err := timed(layers, "record.replay_s", func() error {
			cfg := w.config()
			cfg.Replay, cfg.ShardCount, cfg.ShardIndex = a, 2, 1
			res, err := core.Run(cfg, w.target())
			if err != nil {
				return err
			}
			if res.BucketedFailurePoints() != res.FailurePoints || res.FailurePoints != len(a.FPs) {
				return fmt.Errorf("replayed shard accounts %d of %d failure points (artifact has %d)",
					res.BucketedFailurePoints(), res.FailurePoints, len(a.FPs))
			}
			return nil
		}); err != nil {
			return err
		}
	}

	for i := 0; i < driverReps; i++ {
		if err := shadowLayers(a, layers); err != nil {
			return err
		}
		pmemLayers(a, layers)
	}
	return nil
}

// shadowLayers replays the recorded trace into a fresh sparse shadow PM,
// timing Apply, CrashFingerprint at each failure-point marker (checked
// against the recorded fingerprint), and a Fork + Release there.
func shadowLayers(a *record.Artifact, layers samples) error {
	sh := shadow.NewPM(a.PoolSize)
	var apply, fprint, fork time.Duration
	fp := 0
	mark := time.Now()
	for i := 0; i < a.Trace.Len(); i++ {
		e := a.Trace.At(i)
		sh.Apply(e)
		if e.Kind != trace.FailurePoint || e.Stage != trace.PreFailure {
			continue
		}
		t1 := time.Now()
		apply += t1.Sub(mark)
		got := sh.CrashFingerprint()
		t2 := time.Now()
		fprint += t2.Sub(t1)
		if fp >= len(a.FPs) || got != a.FPs[fp].Fingerprint {
			return fmt.Errorf("shadow replay: fingerprint of failure point %d disagrees with the recording", fp)
		}
		sh.Fork().Release()
		mark = time.Now()
		fork += mark.Sub(t2)
		fp++
	}
	apply += time.Since(mark)
	if fp != len(a.FPs) {
		return fmt.Errorf("shadow replay: %d failure-point markers, artifact has %d", fp, len(a.FPs))
	}
	layers.add("shadow.apply_s", apply.Seconds())
	layers.add("shadow.fingerprint_s", fprint.Seconds())
	layers.add("shadow.fingerprints", float64(fp))
	layers.add("shadow.fork_s", fork.Seconds())
	return nil
}

// pmemLayers replays the recorded per-failure-point page deltas into a
// pool and times the snapshot each failure point takes (TakeSnapshot) and
// the copy-on-write view a post-run starts from (FromSnapshot).
func pmemLayers(a *record.Artifact, layers samples) {
	pool := pmem.New("replay", int(a.PoolSize))
	var snap time.Duration
	pages := 0
	for _, rec := range a.FPs {
		for _, d := range rec.Delta {
			pool.Poke(uint64(d.Index)*pmem.PageSize, d.Data)
		}
		pages += len(rec.Delta)
		start := time.Now()
		pmem.FromSnapshot("post", pool.TakeSnapshot())
		snap += time.Since(start)
	}
	layers.add("pmem.snapshot_s", snap.Seconds())
	layers.add("pmem.snapshot_pages", float64(pages))
}

// stateLayers drives the ckpt and vcache layers over a fleet campaign's
// daemon-held files: every shard checkpoint under dir read and merged, and
// the daemon's verdict cache opened with one lookup per checkpointed
// fingerprint. The merged keys must equal want.
func stateLayers(dir, cachePath string, identity uint64, want []string, layers samples) error {
	paths, err := filepath.Glob(filepath.Join(dir, "shard*.ckpt"))
	if err != nil || len(paths) == 0 {
		return fmt.Errorf("no shard checkpoints under %s", dir)
	}
	sort.Strings(paths)
	for i := 0; i < driverReps; i++ {
		var read, merge time.Duration
		m := ckpt.NewMerger()
		var fprs []uint64
		lines := 0
		for _, p := range paths {
			start := time.Now()
			ls, err := ckpt.ReadFile(p)
			if err != nil {
				return err
			}
			mid := time.Now()
			if err := m.AddAll(filepath.Base(p), ls); err != nil {
				return err
			}
			read += mid.Sub(start)
			merge += time.Since(mid)
			lines += len(ls)
			for _, l := range ls {
				if l.FPrint != 0 {
					fprs = append(fprs, l.FPrint)
				}
			}
		}
		res := m.Result("merged")
		if res.Incomplete {
			return fmt.Errorf("merged shard checkpoints are incomplete: %s", res.IncompleteReason)
		}
		if err := sameKeys(ckpt.SortedKeys(res.Reports), want); err != nil {
			return fmt.Errorf("merged shard checkpoints: %w", err)
		}
		layers.add("ckpt.read_s", read.Seconds())
		layers.add("ckpt.merge_s", merge.Seconds())
		layers.add("ckpt.lines", float64(lines))

		var c *vcache.Cache
		if err := timed(layers, "vcache.open_s", func() (err error) {
			c, err = vcache.Open(cachePath)
			return err
		}); err != nil {
			return err
		}
		start := time.Now()
		for _, f := range fprs {
			c.Lookup(identity, f)
		}
		layers.add("vcache.lookup_s", time.Since(start).Seconds())
		layers.add("vcache.entries", float64(c.Len()))
		c.Close()
	}
	return nil
}
