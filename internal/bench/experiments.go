package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"github.com/pmemgo/xfdetector/internal/baseline"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/mechanisms"
	"github.com/pmemgo/xfdetector/internal/pmobj"
	"github.com/pmemgo/xfdetector/internal/pmredis"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

// Fig12aRow is one bar of Fig. 12a: detection wall-clock time for one
// workload, broken into pre- and post-failure stages.
type Fig12aRow struct {
	Workload      string
	PreSeconds    float64
	PostSeconds   float64
	FailurePoints int
	PostRuns      int
}

// fig12aRuns is how many times Fig12a runs each workload. One campaign
// takes a few milliseconds, so one scheduling stall can flip a single
// run's pre/post split; the median of five interleaved rounds absorbs two.
const fig12aRuns = 5

// Fig12a runs the §6.2.1 execution-time experiment: each workload performs
// one insertion under detection (after a one-insertion initialization),
// with one post-failure operation per failure point. The paper's campaign
// runs every failure point, so the reproduction disables crash-state
// pruning; the pruning win is measured separately (PruneAblation). Each
// row reports the median pre- and post-failure times of fig12aRuns
// rounds, every round running all workloads in turn.
func Fig12a() ([]Fig12aRow, error) {
	workloads := Table4()
	rows := make([]Fig12aRow, len(workloads))
	pre := make([][]float64, len(workloads))
	post := make([][]float64, len(workloads))
	for round := 0; round < fig12aRuns; round++ {
		for i, w := range workloads {
			res, err := core.Run(core.Config{PoolSize: DefaultPoolSize, DisablePruning: true}, w.Target(Fig12Config))
			if err != nil {
				return nil, fmt.Errorf("fig12a %s: %w", w.Name, err)
			}
			pre[i] = append(pre[i], res.PreSeconds)
			post[i] = append(post[i], res.PostSeconds)
			rows[i] = Fig12aRow{Workload: w.Name, FailurePoints: res.FailurePoints, PostRuns: res.PostRuns}
		}
	}
	for i := range rows {
		rows[i].PreSeconds = median(pre[i])
		rows[i].PostSeconds = median(post[i])
	}
	return rows, nil
}

// median returns the middle value of an odd-length sample, sorting it in
// place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// WriteFig12a renders the experiment as the paper's figure data.
func WriteFig12a(w io.Writer) error {
	rows, err := Fig12a()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 12a — XFDetector execution time per workload (1 init + 1 test insertion; median of %d runs)\n", fig12aRuns)
	fmt.Fprintf(w, "%-16s %12s %12s %12s %8s\n", "workload", "pre (s)", "post (s)", "total (s)", "#FPs")
	var geoPre, geoPost float64 = 1, 1
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %12.4f %12.4f %12.4f %8d\n",
			r.Workload, r.PreSeconds, r.PostSeconds, r.PreSeconds+r.PostSeconds, r.FailurePoints)
		geoPre *= r.PreSeconds + 1e-9
		geoPost *= r.PostSeconds + 1e-9
	}
	n := float64(len(rows))
	fmt.Fprintf(w, "geomean pre %.4fs, post %.4fs — post-failure stage dominates (paper: same shape)\n",
		pow(geoPre, 1/n), pow(geoPost, 1/n))
	return nil
}

func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Exp(y * math.Log(x))
}

// Fig12bRow is one group of Fig. 12b: the slowdown of full detection over
// the tracing-only ("Pure Pin") and original configurations.
type Fig12bRow struct {
	Workload         string
	DetectSeconds    float64
	TraceSeconds     float64
	OriginalSeconds  float64
	OverTraceOnly    float64
	OverOriginal     float64
	TraceOverOrig    float64
	FailurePointsRun int
}

// fig12bRuns is how many times Fig12b times each mode of each workload.
// One run takes 1–19 ms, so a single timing is mostly noise; the median of
// interleaved runs is not.
const fig12bRuns = 11

// Fig12b runs the three configurations of §6.2.1 for every workload and
// reports each mode's median wall-clock over fig12bRuns rounds, the modes
// interleaved within a round so that drift in the host's speed hits all
// three alike.
func Fig12b() ([]Fig12bRow, error) {
	modes := []core.Mode{core.ModeDetect, core.ModeTraceOnly, core.ModeOriginal}
	var rows []Fig12bRow
	for _, w := range Table4() {
		samples := map[core.Mode][]float64{}
		fps := 0
		for round := 0; round < fig12bRuns; round++ {
			for _, mode := range modes {
				start := time.Now()
				res, err := core.Run(core.Config{PoolSize: DefaultPoolSize, Mode: mode, DisablePruning: true}, w.Target(Fig12Config))
				if err != nil {
					return nil, fmt.Errorf("fig12b %s %v: %w", w.Name, mode, err)
				}
				samples[mode] = append(samples[mode], time.Since(start).Seconds())
				if mode == core.ModeDetect {
					fps = res.FailurePoints
				}
			}
		}
		times := map[core.Mode]float64{}
		for _, mode := range modes {
			times[mode] = median(samples[mode])
		}
		const floor = 50e-9 // avoid dividing by timer noise
		orig := times[core.ModeOriginal]
		if orig < floor {
			orig = floor
		}
		tr := times[core.ModeTraceOnly]
		if tr < floor {
			tr = floor
		}
		rows = append(rows, Fig12bRow{
			Workload:         w.Name,
			DetectSeconds:    times[core.ModeDetect],
			TraceSeconds:     times[core.ModeTraceOnly],
			OriginalSeconds:  times[core.ModeOriginal],
			OverTraceOnly:    times[core.ModeDetect] / tr,
			OverOriginal:     times[core.ModeDetect] / orig,
			TraceOverOrig:    tr / orig,
			FailurePointsRun: fps,
		})
	}
	return rows, nil
}

// WriteFig12b renders the slowdown comparison.
func WriteFig12b(w io.Writer) error {
	rows, err := Fig12b()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 12b — slowdown of detection over tracing-only (\"Pure Pin\") and original")
	fmt.Fprintf(w, "%-16s %12s %12s %12s %14s %14s\n",
		"workload", "detect (s)", "trace (s)", "orig (s)", "over trace", "over original")
	geoTrace, geoOrig := 1.0, 1.0
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %12.4f %12.6f %12.6f %13.1fx %13.1fx\n",
			r.Workload, r.DetectSeconds, r.TraceSeconds, r.OriginalSeconds,
			r.OverTraceOnly, r.OverOriginal)
		geoTrace *= r.OverTraceOnly
		geoOrig *= r.OverOriginal
	}
	n := float64(len(rows))
	fmt.Fprintf(w, "geomean: %.1fx over tracing-only, %.1fx over original (paper: 12.3x and 400.8x)\n",
		pow(geoTrace, 1/n), pow(geoOrig, 1/n))
	return nil
}

// PruneAblationRow is one row of the crash-state pruning ablation: the
// same workload under the update-heavy PruneAblationConfig with pruning
// enabled (the default) and disabled.
type PruneAblationRow struct {
	Workload      string
	FailurePoints int
	// Classes and Pruned are the pruned run's crash-state classes tested
	// and member failure points skipped; Classes + Pruned == FailurePoints
	// when every class is clean.
	Classes int
	Pruned  int
	// PrunedSeconds and FullSeconds are total detection times (pre + post)
	// with and without pruning; Speedup is their ratio.
	PrunedSeconds float64
	FullSeconds   float64
	Speedup       float64
}

// PruneAblation measures what crash-state pruning buys on each Table 4
// workload when the pre-failure stage repeats an update pass with
// identical values — the repetitive loop shape pruning targets. Both runs
// produce the identical deduplicated report-key set (pinned by
// TestPruneEquivalenceUpdateHeavy); only the number of post-failure
// executions differs.
func PruneAblation() ([]PruneAblationRow, error) {
	var rows []PruneAblationRow
	for _, w := range Table4() {
		full, err := core.Run(core.Config{PoolSize: DefaultPoolSize, DisablePruning: true},
			w.Target(PruneAblationConfig))
		if err != nil {
			return nil, fmt.Errorf("prune ablation %s (no-prune): %w", w.Name, err)
		}
		pruned, err := core.Run(core.Config{PoolSize: DefaultPoolSize}, w.Target(PruneAblationConfig))
		if err != nil {
			return nil, fmt.Errorf("prune ablation %s: %w", w.Name, err)
		}
		fullT := full.PreSeconds + full.PostSeconds
		prunedT := pruned.PreSeconds + pruned.PostSeconds
		speedup := 0.0
		if prunedT > 0 {
			speedup = fullT / prunedT
		}
		rows = append(rows, PruneAblationRow{
			Workload:      w.Name,
			FailurePoints: pruned.FailurePoints,
			Classes:       pruned.CrashStateClasses,
			Pruned:        pruned.PrunedFailurePoints,
			PrunedSeconds: prunedT,
			FullSeconds:   fullT,
			Speedup:       speedup,
		})
	}
	return rows, nil
}

// WritePruneAblation renders the pruning ablation table.
func WritePruneAblation(w io.Writer) error {
	rows, err := PruneAblation()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Pruning ablation — crash-state classes vs. failure points (update-heavy config)")
	fmt.Fprintf(w, "%-16s %8s %8s %8s %12s %12s %9s\n",
		"workload", "#FPs", "classes", "pruned", "pruned (s)", "full (s)", "speedup")
	geo := 1.0
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %8d %8d %8d %12.4f %12.4f %8.1fx\n",
			r.Workload, r.FailurePoints, r.Classes, r.Pruned,
			r.PrunedSeconds, r.FullSeconds, r.Speedup)
		geo *= r.Speedup + 1e-9
	}
	fmt.Fprintf(w, "geomean speedup %.1fx; report-key sets identical with and without pruning\n",
		pow(geo, 1/float64(len(rows))))
	return nil
}

// Fig13Row is one point of Fig. 13: detection time and failure points as
// the number of pre-failure transactions scales.
type Fig13Row struct {
	Workload      string
	Transactions  int
	Seconds       float64
	FailurePoints int
}

// Fig13Transactions are the x-axis points of Fig. 13.
var Fig13Transactions = []int{1, 10, 20, 30, 40, 50}

// Fig13 runs the §6.2.2 scalability sweep over the five micro benchmarks.
func Fig13() ([]Fig13Row, error) {
	var rows []Fig13Row
	for _, m := range workloads.Makers() {
		for _, n := range Fig13Transactions {
			cfg := workloads.TargetConfig{InitSize: 1, TestSize: n, PostOps: true}
			// Unpruned like Fig12a: the paper's linear time-per-failure-point
			// shape is a property of running every failure point.
			res, err := core.Run(core.Config{PoolSize: 16 << 20, DisablePruning: true},
				workloads.DetectionTarget(m, cfg))
			if err != nil {
				return nil, fmt.Errorf("fig13 %s n=%d: %w", m.Name, n, err)
			}
			rows = append(rows, Fig13Row{
				Workload:      m.Name,
				Transactions:  n,
				Seconds:       res.PreSeconds + res.PostSeconds,
				FailurePoints: res.FailurePoints,
			})
		}
	}
	return rows, nil
}

// WriteFig13 renders the scalability sweep and a linearity estimate.
func WriteFig13(w io.Writer) error {
	rows, err := Fig13()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 13 — execution time vs. number of pre-failure transactions")
	fmt.Fprintf(w, "%-16s %8s %12s %8s %14s\n", "workload", "#tx", "time (s)", "#FPs", "ms per FP")
	for _, r := range rows {
		perFP := 0.0
		if r.FailurePoints > 0 {
			perFP = r.Seconds / float64(r.FailurePoints) * 1000
		}
		fmt.Fprintf(w, "%-16s %8d %12.4f %8d %14.3f\n",
			r.Workload, r.Transactions, r.Seconds, r.FailurePoints, perFP)
	}
	fmt.Fprintln(w, "shape check: time grows linearly with #failure points (constant ms/FP per workload)")
	return nil
}

// Table5Result summarizes the validation suite per workload.
type Table5Result struct {
	Workload                        string
	Races, Semantic, Perf           int
	DetectedR, DetectedS, DetectedP int
	MisclassifiedOrMissed           []string
}

// Table5 runs every synthetic bug and tallies detections by class.
func Table5() ([]Table5Result, error) {
	cfg := workloads.TargetConfig{
		InitSize: 10, TestSize: 5, Updates: 2, Removes: 5,
		PostOps: true, FaultInCreate: true,
	}
	byWorkload := map[string]*Table5Result{}
	var order []string
	for _, fl := range workloads.AllFaults() {
		r, ok := byWorkload[fl.Workload]
		if !ok {
			r = &Table5Result{Workload: fl.Workload}
			byWorkload[fl.Workload] = r
			order = append(order, fl.Workload)
		}
		m, _ := workloads.MakerFor(fl.Workload)
		c := cfg
		c.Fault = fl.Name
		res, err := core.Run(core.Config{PoolSize: DefaultPoolSize, MaxPostOps: 1 << 17}, workloads.DetectionTarget(m, c))
		if err != nil {
			return nil, fmt.Errorf("table5 %s: %w", fl.Name, err)
		}
		detected := res.Count(fl.Class) > 0
		switch fl.Class {
		case core.CrossFailureRace:
			r.Races++
			if detected {
				r.DetectedR++
			}
		case core.CrossFailureSemantic:
			r.Semantic++
			if detected {
				r.DetectedS++
			}
		case core.Performance:
			r.Perf++
			if detected {
				r.DetectedP++
			}
		}
		if !detected {
			r.MisclassifiedOrMissed = append(r.MisclassifiedOrMissed, fl.Name)
		}
	}
	var out []Table5Result
	for _, name := range order {
		out = append(out, *byWorkload[name])
	}
	return out, nil
}

// WriteTable5 renders the validation table.
func WriteTable5(w io.Writer) error {
	rows, err := Table5()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 5 — synthetic-bug validation (R: cross-failure race, S: semantic, P: performance)")
	fmt.Fprintf(w, "%-16s %10s %10s %10s %8s\n", "workload", "R det/tot", "S det/tot", "P det/tot", "missed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %6d/%-3d %6d/%-3d %6d/%-3d %8d\n",
			r.Workload, r.DetectedR, r.Races, r.DetectedS, r.Semantic,
			r.DetectedP, r.Perf, len(r.MisclassifiedOrMissed))
		for _, m := range r.MisclassifiedOrMissed {
			fmt.Fprintf(w, "    MISSED: %s\n", m)
		}
	}
	return nil
}

// CoverageRow compares XFDetector against the pre-failure-only baselines
// on one seeded bug (the Fig. 3 comparison).
type CoverageRow struct {
	Fault     string
	Workload  string
	Class     core.BugClass
	XFD       bool
	Pmemcheck bool
	PMTest    bool
}

// Coverage runs every synthetic bug under XFDetector and both baselines.
func Coverage() ([]CoverageRow, error) {
	cfg := workloads.TargetConfig{
		InitSize: 10, TestSize: 5, Updates: 2, Removes: 5,
		PostOps: true, FaultInCreate: true,
	}
	var rows []CoverageRow
	for _, fl := range workloads.AllFaults() {
		m, _ := workloads.MakerFor(fl.Workload)
		c := cfg
		c.Fault = fl.Name
		res, err := core.Run(core.Config{PoolSize: DefaultPoolSize, MaxPostOps: 1 << 17}, workloads.DetectionTarget(m, c))
		if err != nil {
			return nil, err
		}
		trRes, err := core.Run(core.Config{
			PoolSize: DefaultPoolSize, Mode: core.ModeTraceOnly, KeepTrace: true,
		}, workloads.DetectionTarget(m, c))
		if err != nil {
			return nil, err
		}
		tr := trRes.PreTrace()
		size := baseline.PoolSizeFor(tr)
		rows = append(rows, CoverageRow{
			Fault:     fl.Name,
			Workload:  fl.Workload,
			Class:     fl.Class,
			XFD:       res.Count(fl.Class) > 0,
			Pmemcheck: len(baseline.Pmemcheck(tr, size)) > 0,
			PMTest:    len(baseline.PMTest(tr, size)) > 0,
		})
	}
	return rows, nil
}

// WriteCoverage renders the Fig. 3 comparison summary.
func WriteCoverage(w io.Writer) error {
	rows, err := Coverage()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 3 — detection coverage: XFDetector vs. pre-failure-only tools")
	fmt.Fprintf(w, "%-34s %-26s %5s %10s %7s\n", "fault", "class", "XFD", "pmemcheck", "PMTest")
	var xfd, pc, pt, total int
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %-26s %5s %10s %7s\n",
			r.Fault, r.Class, mark(r.XFD), mark(r.Pmemcheck), mark(r.PMTest))
		total++
		if r.XFD {
			xfd++
		}
		if r.Pmemcheck {
			pc++
		}
		if r.PMTest {
			pt++
		}
	}
	fmt.Fprintf(w, "detected: XFDetector %d/%d, pmemcheck-like %d/%d, PMTest-like %d/%d\n",
		xfd, total, pc, total, pt, total)
	return nil
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "-"
}

// NewBugsReport reproduces §6.3.2: the four new bugs the paper found.
func NewBugsReport(w io.Writer) error {
	fmt.Fprintln(w, "§6.3.2 — the four new bugs, reproduced")
	cfg := workloads.TargetConfig{
		InitSize: 4, TestSize: 3, PostOps: true, FaultInCreate: true,
	}
	type bug struct {
		id     string
		desc   string
		target core.Target
		class  core.BugClass
	}
	hm, _ := workloads.MakerFor("Hashmap-Atomic")
	bug1 := cfg
	bug1.Fault = "hma-bug1-seed-no-persist"
	bug2 := cfg
	bug2.Fault = "hma-bug2-count-uninit"
	bugs := []bug{
		{"Bug 1", "Hashmap-Atomic: hash metadata not persisted at creation (hashmap_atomic.c:132-138)",
			workloads.DetectionTarget(hm, bug1), core.CrossFailureRace},
		{"Bug 2", "Hashmap-Atomic: count read potentially uninitialized after allocation (hashmap_atomic.c:280)",
			workloads.DetectionTarget(hm, bug2), core.CrossFailureRace},
		{"Bug 3", "Redis: num_dict_entries initialized outside the transaction (server.c:4029)",
			RedisTarget(pmredis.Options{InitRaceBug: true},
				workloads.TargetConfig{InitSize: 2, TestSize: 2, PostOps: true}), core.CrossFailureRace},
		{"Bug 4", "libpmemobj: pool creation metadata not ordered before the validity flag (obj.c:1324)",
			bug4Target(), core.CrossFailureRace},
	}
	for _, b := range bugs {
		res, err := core.Run(core.Config{PoolSize: DefaultPoolSize}, b.target)
		if err != nil {
			return err
		}
		status := "NOT DETECTED"
		if res.Count(b.class) > 0 || res.Count(core.CrossFailureSemantic) > 0 {
			status = "DETECTED"
		}
		fmt.Fprintf(w, "\n%s — %s: %s\n", b.id, b.desc, status)
		for _, rep := range res.Reports {
			if rep.Class == core.CrossFailureRace || rep.Class == core.CrossFailureSemantic {
				fmt.Fprintf(w, "  %s\n", rep)
			}
		}
	}
	return nil
}

func bug4Target() core.Target {
	return core.Target{
		Name: "pmemobj-create",
		Pre: func(c *core.Ctx) error {
			_, err := pmobj.Create(c.Pool(), 64,
				&pmobj.Options{Faults: pmobj.Faults{CreateUnorderedMeta: true}})
			return err
		},
		Post: func(c *core.Ctx) error {
			po, err := pmobj.Open(c.Pool())
			if err == pmobj.ErrNotAPool {
				return nil
			}
			if err != nil {
				return err
			}
			c.Pool().Load64(po.Root())
			return nil
		},
	}
}

// WriteTable1 validates the six Table 1 mechanisms (clean and buggy).
func WriteTable1(w io.Writer) error {
	fmt.Fprintln(w, "Table 1 — crash-consistency mechanisms under detection")
	fmt.Fprintf(w, "%-22s %8s %10s %28s\n", "mechanism", "clean", "#FPs", "seeded bug detected as")
	for i, m := range mechanisms.All() {
		clean, fps, err := runMechanism(m, false)
		if err != nil {
			return err
		}
		res, _, err := runMechanismResult(mechanisms.All()[i], true)
		if err != nil {
			return err
		}
		kind := "(none)"
		for _, class := range []core.BugClass{
			core.CrossFailureSemantic, core.CrossFailureRace, core.PostFailureFault,
		} {
			if res.Count(class) > 0 {
				kind = class.String()
				break
			}
		}
		fmt.Fprintf(w, "%-22s %8v %10d %28s\n", m.Name(), clean, fps, kind)
	}
	return nil
}

func runMechanism(m mechanisms.Mechanism, buggy bool) (clean bool, fps int, err error) {
	res, fps, err := runMechanismResult(m, buggy)
	if err != nil {
		return false, 0, err
	}
	return len(res.Reports) == 0, fps, nil
}

func runMechanismResult(m mechanisms.Mechanism, buggy bool) (*core.Result, int, error) {
	m.SetBuggy(buggy)
	res, err := core.Run(core.Config{}, core.Target{
		Name: m.Name(),
		Setup: func(c *core.Ctx) error {
			m.Init(c, mechanisms.MakePayload(1))
			return nil
		},
		Pre: func(c *core.Ctx) error {
			for seed := uint64(2); seed <= 4; seed++ {
				m.Update(c, mechanisms.MakePayload(seed))
			}
			return nil
		},
		Post: func(c *core.Ctx) error {
			v, err := m.Recover(c)
			if err != nil {
				return err
			}
			if s := v.Seed(); s < 1 || s > 4 {
				return fmt.Errorf("recovered impossible seed %d", s)
			}
			return nil
		},
	})
	if err != nil {
		return nil, 0, err
	}
	return res, res.FailurePoints, nil
}

// WriteTable4 lists the evaluated programs with their seeded-bug counts
// (the LOC columns of the paper's Table 4 are specific to the C sources;
// here the suite composition identifies the workloads).
func WriteTable4(w io.Writer) error {
	fmt.Fprintln(w, "Table 4 — the evaluated PM programs")
	fmt.Fprintf(w, "%-16s %-14s %s\n", "name", "type", "seeded bugs (Table 5 suite)")
	for _, row := range Table4() {
		extra := fmt.Sprint(len(workloads.FaultsFor(row.Name)))
		switch row.Name {
		case "Redis":
			extra = "1 (the paper's Bug 3)"
		case "Memcached":
			extra = "0"
		}
		fmt.Fprintf(w, "%-16s %-14s %s\n", row.Name, row.Type, extra)
	}
	return nil
}
