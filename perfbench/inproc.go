package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/pmobj"
	"github.com/pmemgo/xfdetector/internal/record"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

// poolSize is the PM pool every campaign runs with: the CLI's default
// -pool-mb 4.
const poolSize = 4 << 20

// shape is one B-Tree campaign: the workloads.TargetConfig fields the
// benchmark varies, plus the engine's worker count.
type shape struct {
	init, test, updates, rounds, removes int
	// fault is the seeded Table 5 bug ("" = correct program); like the
	// CLI's -patch, it moves structure creation into the pre-failure stage.
	fault   string
	workers int
}

var (
	// updateLoopShape rewrites two keys with identical values for 1000
	// rounds: ~8,000 failure points, 99.6% pruned.
	updateLoopShape = shape{init: 2, test: 1, updates: 2, rounds: 1000, workers: 1}
	// insertBugShape is the program of `xfdetector -workload btree -init 3
	// -test 80 -patch btree-skip-add-leaf` (the CLI defaults add 1 update
	// and 1 removal), run on 2 detector workers.
	insertBugShape = shape{init: 3, test: 80, updates: 1, removes: 1, fault: "btree-skip-add-leaf", workers: 2}
)

// keyOrder returns the key indices a campaign inserts, in order. Seed 0 is
// the identity — the CLI's fixed workloads.Key(i) sequence — and any other
// seed shuffles it.
func keyOrder(n int, seed int64) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if seed != 0 {
		rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	return perm
}

// inproc is a workload whose campaigns are core.Run calls in this process.
type inproc struct {
	shape shape
	maker workloads.Maker
	perm  []int
	// fault is the seeded bug's registry entry (zero for a clean program).
	fault workloads.Fault
	tr    *tracer
	// dir holds the traced run's recorded artifact.
	dir string
	// postDelay spins inside every post-failure stage; the sensitivity
	// self-check uses it to inject a known slowdown into one layer.
	postDelay time.Duration

	// pinned is the sorted dedup key set and failure-point count every
	// campaign must reproduce (pin).
	pinned    []string
	pinnedFPs int
}

func newInproc(s shape, seed int64, dir string) (*inproc, error) {
	m, ok := workloads.MakerFor("B-Tree")
	if !ok {
		return nil, errors.New("B-Tree workload not registered")
	}
	w := &inproc{shape: s, maker: m, perm: keyOrder(s.init+s.test, seed), tr: newTracer(), dir: dir}
	if s.fault != "" {
		for _, f := range workloads.FaultsFor(m.Name) {
			if f.Name == s.fault {
				w.fault = f
			}
		}
		if w.fault.Name == "" {
			return nil, fmt.Errorf("unknown fault %q", s.fault)
		}
	}
	return w, nil
}

// target assembles the program through the Maker API, mirroring
// workloads.DetectionTarget with the seeded key order.
func (w *inproc) target() core.Target {
	s, m := w.shape, w.maker
	key := func(i int) uint64 { return workloads.Key(w.perm[i]) }
	create := func(c *core.Ctx) error {
		st, err := m.Create(c, s.fault)
		if err != nil {
			return err
		}
		for i := 0; i < s.init; i++ {
			if err := st.Insert(key(i), workloads.Value(key(i))); err != nil {
				return fmt.Errorf("init insert %d: %w", i, err)
			}
		}
		return nil
	}
	mutate := func(c *core.Ctx) error {
		st, err := m.Open(c, s.fault)
		if err != nil {
			return err
		}
		for i := 0; i < s.test; i++ {
			k := key(s.init + i)
			if err := st.Insert(k, workloads.Value(k)); err != nil {
				return fmt.Errorf("insert %d: %w", i, err)
			}
		}
		for r := 0; r < max(s.rounds, 1); r++ {
			for i := 0; i < s.updates && i < s.init; i++ {
				k := key(i)
				if err := st.Insert(k, workloads.Value(k)+uint64(i)+7); err != nil {
					return fmt.Errorf("update round %d, %d: %w", r, i, err)
				}
			}
		}
		for i := 0; i < s.removes && i < s.init; i++ {
			if err := st.Remove(key(i)); err != nil {
				return fmt.Errorf("remove %d: %w", i, err)
			}
		}
		return nil
	}
	t := core.Target{Name: m.Name, Setup: create, Pre: mutate}
	if s.fault != "" {
		t.Setup = nil
		t.Pre = func(c *core.Ctx) error {
			if err := create(c); err != nil {
				return err
			}
			return mutate(c)
		}
	}
	t.Post = func(c *core.Ctx) error {
		st, err := m.Open(c, s.fault)
		if errors.Is(err, pmobj.ErrNotAPool) || errors.Is(err, workloads.ErrNotInitialized) {
			return nil // the failure hit before creation committed
		}
		if err != nil {
			return err
		}
		k := workloads.Key(s.init + s.test)
		if _, _, err := st.Get(key(0)); err != nil {
			return err
		}
		if err := st.Insert(k, workloads.Value(k)); err != nil {
			return err
		}
		return st.Verify()
	}
	return t
}

func (w *inproc) config() core.Config {
	return core.Config{PoolSize: poolSize, Workers: w.shape.workers}
}

// traceTarget wraps t's stages in spans under the campaign root, and
// applies postDelay. Under one worker the post-failure stage runs inline
// inside Pre, so its spans nest there; under more they run on worker
// goroutines and hang off the campaign root.
func (w *inproc) traceTarget(t core.Target, root, campaign int, traced bool) core.Target {
	var preSpan atomic.Int64
	preSpan.Store(int64(root))
	wrap := func(name string, fn func(*core.Ctx) error, parent func() int) func(*core.Ctx) error {
		if fn == nil || !traced {
			return fn
		}
		return func(c *core.Ctx) error {
			id := w.tr.begin(name, parent(), campaign)
			if name == "core.pre" {
				preSpan.Store(int64(id))
			}
			defer w.tr.end(id)
			return fn(c)
		}
	}
	atRoot := func() int { return root }
	t.Setup = wrap("core.setup", t.Setup, atRoot)
	t.Pre = wrap("core.pre", t.Pre, atRoot)
	postParent := atRoot
	if w.shape.workers <= 1 {
		postParent = func() int { return int(preSpan.Load()) }
	}
	if delay, post := w.postDelay, t.Post; delay > 0 {
		t.Post = func(c *core.Ctx) error {
			spin(delay)
			return post(c)
		}
	}
	t.Post = wrap("core.post", t.Post, postParent)
	return t
}

// spin busy-waits for d: a CPU-bound delay of known length.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// run executes one campaign under cfg and times the core.Run call. A
// traced campaign records a core.run root span with the stage spans below
// it.
func (w *inproc) run(cfg core.Config, traced bool) (runResult, error) {
	r := runResult{root: -1}
	campaign := w.tr.nextCampaign()
	if traced {
		r.root = w.tr.begin("core.run", -1, campaign)
	}
	var callbacks atomic.Int64
	cfg.OnPostRunComplete = func(int, uint64, []core.Report) { callbacks.Add(1) }
	t := w.traceTarget(w.target(), r.root, campaign, traced)
	start := time.Now()
	res, err := core.Run(cfg, t)
	r.wall = time.Since(start)
	if traced {
		w.tr.end(r.root)
	}
	r.res, r.callbacks = res, int(callbacks.Load())
	return r, err
}

// runResult is one in-process campaign's outcome.
type runResult struct {
	res  *core.Result
	wall time.Duration
	// root is the traced campaign's root span (-1 untraced); callbacks
	// counts OnPostRunComplete calls, for the accounting check.
	root, callbacks int
}

func (w *inproc) setup() error {
	r, err := w.run(w.config(), false)
	if err != nil {
		return err
	}
	return w.check(r.res)
}

// pin computes the key set and failure-point count every timed campaign
// must reproduce, using the other engine (parallel for a sequential
// workload, sequential for a parallel one) so a campaign that drifts with
// its engine fails the check instead of agreeing with itself.
func (w *inproc) pin() error {
	cfg := w.config()
	cfg.Workers = 2
	if w.shape.workers > 1 {
		cfg.Workers = 1
	}
	r, err := w.run(cfg, false)
	if err != nil {
		return err
	}
	if err := w.check(r.res); err != nil {
		return err
	}
	w.pinned, w.pinnedFPs = ckpt.SortedKeys(r.res.Reports), r.res.FailurePoints
	return nil
}

// check is the per-campaign output check: the bucket identity, the known
// answer, and (once pinned) the key set and failure-point count.
func (w *inproc) check(res *core.Result) error {
	if res.Incomplete {
		return fmt.Errorf("campaign incomplete: %s", res.IncompleteReason)
	}
	if got := res.BucketedFailurePoints(); got != res.FailurePoints {
		return fmt.Errorf("bucket identity broken: buckets sum to %d, %d failure points", got, res.FailurePoints)
	}
	keys := ckpt.SortedKeys(res.Reports)
	if err := checkAnswer(w.fault, keys); err != nil {
		return err
	}
	if w.pinned == nil {
		return nil
	}
	if res.FailurePoints != w.pinnedFPs {
		return fmt.Errorf("%d failure points, pinned %d", res.FailurePoints, w.pinnedFPs)
	}
	return sameKeys(keys, w.pinned)
}

// checkAnswer asserts the known answer: the seeded fault's registry class
// is reported, and a clean program reports no cross-failure bug.
func checkAnswer(fault workloads.Fault, keys []string) error {
	if fault.Name == "" {
		if n := classCount(keys, core.CrossFailureRace) + classCount(keys, core.CrossFailureSemantic); n > 0 {
			return fmt.Errorf("clean program reported %d cross-failure bug(s)", n)
		}
		return nil
	}
	if classCount(keys, fault.Class) == 0 {
		return fmt.Errorf("seeded fault %s: no %s reported", fault.Name, fault.Class)
	}
	return nil
}

// classCount counts the dedup keys of one bug class (core.Report.DedupKey
// leads with the class number).
func classCount(keys []string, c core.BugClass) int {
	prefix := fmt.Sprintf("%d|", c)
	n := 0
	for _, k := range keys {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	return n
}

func sameKeys(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d report keys, pinned %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("report key %q differs from pinned %q", got[i], want[i])
		}
	}
	return nil
}

func (w *inproc) campaign(traced bool, layers samples) outcome {
	r, err := w.run(w.config(), traced)
	if err != nil {
		return outcome{wall: r.wall, fps: w.pinnedFPs, unsettled: w.pinnedFPs, err: err}
	}
	res := r.res
	out := outcome{wall: r.wall, fps: res.FailurePoints, unsettled: res.SkippedFailurePoints + res.AbandonedPostRuns}
	// Every settled point is checkpointed: run, pruned, or attributed.
	settled := res.PostRuns + res.PrunedFailurePoints + res.CrossShardPrunedFailurePoints + res.CacheHitFailurePoints
	if out.err = w.check(res); out.err == nil && r.callbacks != settled {
		out.err = fmt.Errorf("%d post-run callbacks for %d settled failure points", r.callbacks, settled)
	}
	if out.err != nil {
		out.unsettled = res.FailurePoints
	}
	if traced {
		w.coreLayers(res, r.root, layers)
	}
	return out
}

// coreLayers derives the core.* per-layer metrics of one traced campaign.
func (w *inproc) coreLayers(res *core.Result, root int, layers samples) {
	run := w.tr.get(root)
	posts := w.tr.named(run.Campaign, "core.post")
	for _, pre := range w.tr.named(run.Campaign, "core.pre") {
		layers.add("core.pre_self_s", w.tr.self(pre.ID).Seconds())
	}
	postS := sumDur(posts)
	layers.add("core.post_s", postS)
	for _, p := range posts {
		layers.add("core.post_run_ms_p50", p.dur().Seconds()*1000)
	}
	layers.add("core.run_self_s", w.tr.self(root).Seconds())
	layers.add("core.worker_busy_frac", postS/(float64(w.shape.workers)*run.dur().Seconds()))
	countLayers(res, layers)
}

// countLayers records the Result-derived counts.
func countLayers(res *core.Result, layers samples) {
	layers.add("core.failure_points", float64(res.FailurePoints))
	layers.add("core.post_runs", float64(res.PostRuns))
	layers.add("core.classes", float64(res.CrashStateClasses))
	layers.add("core.prune_ratio", float64(res.PrunedFailurePoints)/float64(max(res.FailurePoints, 1)))
	layers.add("shadow.peak_bytes", float64(res.ShadowPeakBytes))
}

// layers runs the traced run's layer drivers on this workload's own
// recorded artifact.
func (w *inproc) layers(layers samples) error {
	path := filepath.Join(w.dir, "campaign.xfdr")
	if err := w.recordLayer(path, layers); err != nil {
		return err
	}
	if err := w.modeLayers(layers); err != nil {
		return err
	}
	return w.artifactLayers(path, layers)
}

// recordLayer times core.Run with Config.Record writing the artifact to
// path, as `xfdetector -record` does. It runs once: recording the update
// loop serializes a thousand engine checkpoints and takes seconds.
func (w *inproc) recordLayer(path string, layers samples) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cfg := w.config()
	cfg.Record = record.NewWriter(f, 0, poolSize, 0)
	start := time.Now()
	if _, err := core.Run(cfg, w.target()); err != nil {
		return fmt.Errorf("record driver: %w", err)
	}
	layers.add("record.record_s", time.Since(start).Seconds())
	st, err := f.Stat()
	if err != nil {
		return err
	}
	layers.add("record.bytes", float64(st.Size()))
	return f.Close()
}

// modeLayers times the program untraced (ModeOriginal) and traced without
// detection (ModeTraceOnly); their difference is the cost of tracing plus
// IP capture.
func (w *inproc) modeLayers(layers samples) error {
	var orig, traced []float64
	for i := 0; i < driverReps; i++ {
		for _, mode := range []core.Mode{core.ModeOriginal, core.ModeTraceOnly} {
			cfg := w.config()
			cfg.Mode = mode
			start := time.Now()
			if _, err := core.Run(cfg, w.target()); err != nil {
				return fmt.Errorf("%s driver: %w", mode, err)
			}
			if mode == core.ModeOriginal {
				orig = append(orig, time.Since(start).Seconds())
			} else {
				traced = append(traced, time.Since(start).Seconds())
			}
		}
	}
	layers.add("workloads.original_s", median(orig))
	layers.add("pmem.trace_s", max(median(traced)-median(orig), 0))
	return nil
}

// driverReps is how often each layer driver repeats; each reports the
// median.
const driverReps = 3
