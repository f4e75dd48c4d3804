// Command perfbench is the repository's end-to-end benchmark. It runs one
// detection workload as a closed loop — one campaign at a time, from one
// process — for a fixed time, checks every campaign's output, and prints
// its metrics: the end-to-end metrics from an untraced run (-trace 0), or
// the per-layer breakdown from a traced run (-trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// where attempted counts failure points and failed those not settled.
// Run it through run.sh, which builds it and the xfdetector binary the
// fleet workload executes:
//
//	bash perfbench/run.sh --workload fleet_insert --seed 1 --seconds 45 --trace 0
//
// perfbench/README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// processStart anchors set-up time: a set-up sample runs from process
// start to the end of the warm-up campaign.
var processStart = time.Now()

// metric names one reported metric and its unit.
type metric struct{ name, unit string }

// endToEnd are the untraced run's metrics, in BENCHMARK.json order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"campaign_p50_s", "s"},
	{"campaign_tail_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// summaryOnly are untraced metrics printed in the summary but left out of
// the JSON metrics. fp_per_s is the median campaign's failure points over
// its wall-clock, so it moves with campaign_p50_s and adds no bound of its
// own; failed_frac is 0 on every correct run, and the JSON line's failed
// and attempted counts carry it exactly.
var summaryOnly = []metric{
	{"fp_per_s", "1/s"},
	{"failed_frac", "ratio"},
}

// perLayer are the traced run's metrics, in BENCHMARK.json order. A layer
// a workload does not exercise reports 0 (serve.* on in-process
// workloads).
var perLayer = []metric{
	{"core.pre_self_s", "s"},
	{"core.post_s", "s"},
	{"core.post_run_ms_p50", "ms"},
	{"core.run_self_s", "s"},
	{"core.worker_busy_frac", "ratio"},
	{"core.failure_points", "count"},
	{"core.post_runs", "count"},
	{"core.classes", "count"},
	{"core.prune_ratio", "ratio"},
	{"workloads.original_s", "s"},
	{"pmem.trace_s", "s"},
	{"pmem.snapshot_s", "s"},
	{"pmem.snapshot_pages", "count"},
	{"shadow.apply_s", "s"},
	{"shadow.fingerprint_s", "s"},
	{"shadow.fingerprints", "count"},
	{"shadow.fork_s", "s"},
	{"shadow.peak_bytes", "bytes"},
	{"trace.encode_s", "s"},
	{"trace.decode_s", "s"},
	{"trace.bytes", "bytes"},
	{"record.record_s", "s"},
	{"record.bytes", "bytes"},
	{"record.load_s", "s"},
	{"record.restore_s", "s"},
	{"record.replay_s", "s"},
	{"ckpt.lines", "count"},
	{"ckpt.read_s", "s"},
	{"ckpt.merge_s", "s"},
	{"vcache.entries", "count"},
	{"vcache.open_s", "s"},
	{"vcache.lookup_s", "s"},
	{"serve.record_s", "s"},
	{"serve.lease_wait_s", "s"},
	{"serve.acquire_n", "count"},
	{"serve.grant_ratio", "ratio"},
	{"serve.artifact_s", "s"},
	{"serve.lines_s", "s"},
	{"serve.lines_n", "count"},
	{"serve.claim_s", "s"},
	{"serve.claim_n", "count"},
	{"serve.resolve_s", "s"},
	{"serve.resolve_n", "count"},
	{"serve.shard_max_s", "s"},
	{"serve.merge_tail_s", "s"},
	{"bench.trace_overhead_frac", "ratio"},
}

// setupSamples is how many set-ups a run times: its own plus
// setupSamples-1 probes in fresh processes, so the first-campaign caches
// (the package-global PC→file:line cache) are cold in every sample.
const setupSamples = 5

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	exe        string
	workdir    string
	setupProbe bool
}

// outcome is one campaign: its wall-clock from start to merged report, its
// failure points, how many of them did not settle, and its output check.
type outcome struct {
	wall           time.Duration
	fps, unsettled int
	err            error
}

// workload is one benchmark workload.
type workload interface {
	// setup builds the workload and runs its warm-up campaign.
	setup() error
	// pin fixes the key set and failure-point count every campaign must
	// reproduce.
	pin() error
	// campaign runs and checks one campaign; a traced one adds its
	// per-layer observations to layers.
	campaign(traced bool, layers samples) outcome
	// layers runs the traced run's layer drivers.
	layers(layers samples) error
	close()
}

func (w *inproc) close() {}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "update_loop":
		return newInproc(updateLoopShape, o.seed, o.workdir)
	case "insert_bug":
		return newInproc(insertBugShape, o.seed, o.workdir)
	case "fleet_insert":
		return newFleet(o.exe, filepath.Join(o.workdir, "fleet"))
	}
	return nil, fmt.Errorf("unknown workload %q (update_loop, insert_bug, fleet_insert)", o.workload)
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "update_loop | insert_bug | fleet_insert")
	fs.Int64Var(&o.seed, "seed", 0, "workload seed: 0 is the CLI's fixed key order, others shuffle it (fleet_insert ignores it)")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the campaign loop measures")
	fs.IntVar(&o.trace, "trace", 0, "0 = untraced end-to-end run, 1 = traced per-layer run")
	fs.StringVar(&o.exe, "xfdetector", "", "xfdetector binary the fleet's workers and record launcher execute")
	fs.StringVar(&o.workdir, "workdir", "", "scratch directory (default: a new temporary directory)")
	fs.BoolVar(&o.setupProbe, "setup-probe", false, "time one set-up in this process, print its seconds and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if o.workdir == "" {
		dir, err := os.MkdirTemp("", "perfbench-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		o.workdir = dir
	}
	if o.setupProbe {
		secs, err := probeSetup(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
			return 1
		}
		fmt.Println(secs)
		return 0
	}
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.print(o)
	return 0
}

// probeSetup times one set-up from process start.
func probeSetup(o options) (float64, error) {
	w, err := newWorkload(o)
	if err != nil {
		return 0, err
	}
	defer w.close()
	if err := w.setup(); err != nil {
		return 0, err
	}
	return time.Since(processStart).Seconds(), nil
}

// report is one run's figures.
type report struct {
	campaigns, traced int
	elapsed           time.Duration
	attempted, failed int
	checkErr          error
	setups            []float64
	tailPct           float64
	metrics           map[string]float64
}

func run(o options) (*report, error) {
	o.workdir = filepath.Join(o.workdir, fmt.Sprintf("run%d", os.Getpid()))
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.workdir)
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			w.close()
		}
	}()

	// Set-up: this process's own, timed from process start.
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r := &report{setups: []float64{time.Since(processStart).Seconds()}, metrics: map[string]float64{}}
	if err := w.pin(); err != nil {
		return nil, fmt.Errorf("pinning the reference key set: %w", err)
	}

	// The closed loop. Under -trace 1 campaigns alternate untraced and
	// traced, so the tracing overhead is measured against neighbours. An
	// untraced run goes on past the deadline until campaign_tail_s has
	// tailBeyond samples above it.
	layers := samples{}
	var walls, tracedWalls, cpus, peaks, rates []float64
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	minSamples := 1 + o.trace
	if o.trace == 0 {
		minSamples = tailBeyond + 1
	}
	for i := 0; time.Now().Before(deadline) || i < minSamples; i++ {
		traced := o.trace == 1 && i%2 == 1
		// Every campaign starts from a collected heap handed back to the
		// kernel, with the peak resident-set counter restarted.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		before := readUsage()
		out := w.campaign(traced, layers)
		after := readUsage()
		peak, err := peakRSS()
		if err != nil {
			return nil, err
		}
		r.attempted += out.fps
		r.failed += out.unsettled
		if out.err != nil && r.checkErr == nil {
			r.checkErr = fmt.Errorf("campaign %d: %w", i, out.err)
		}
		fmt.Fprintf(os.Stderr, "campaign %d: %.4f s, %d failure points, traced=%v\n", i, out.wall.Seconds(), out.fps, traced)
		if traced {
			tracedWalls = append(tracedWalls, out.wall.Seconds())
			r.traced++
			continue
		}
		walls = append(walls, out.wall.Seconds())
		cpus = append(cpus, (after.cpu - before.cpu).Seconds())
		peaks = append(peaks, float64(peak)/1024)
		rates = append(rates, float64(out.fps-out.unsettled)/out.wall.Seconds())
	}
	r.elapsed = time.Since(start)
	r.campaigns = len(walls) + len(tracedWalls)
	peakMB := median(peaks)
	if o.workload == "fleet_insert" {
		peakMB = max(peakMB, float64(readUsage().childRSS)/1024) // the record and shard children
	}

	if o.trace == 1 {
		if err := w.layers(layers); err != nil && r.checkErr == nil {
			r.checkErr = fmt.Errorf("layer drivers: %w", err)
		}
		for name, v := range layers.medians() {
			r.metrics[name] = v
		}
		r.metrics["bench.trace_overhead_frac"] = median(tracedWalls)/median(walls) - 1
		spans := filepath.Join(filepath.Dir(o.workdir), fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := tracerOf(w).writeFile(spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	w.close()
	closed = true

	// The remaining set-up samples, each in a fresh process.
	for i := 1; i < setupSamples; i++ {
		secs, err := runProbe(o, i)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, secs)
	}

	r.metrics["failed_frac"] = float64(r.failed) / float64(max(r.attempted, 1))
	if o.trace == 0 {
		var ok bool
		r.metrics["setup_s"] = median(r.setups)
		r.metrics["campaign_p50_s"] = median(walls)
		r.metrics["campaign_tail_s"], r.tailPct, ok = tail(walls)
		if !ok {
			return nil, fmt.Errorf("%d untraced campaigns: campaign_tail_s needs more than %d", len(walls), tailBeyond)
		}
		r.metrics["fp_per_s"] = median(rates)
		r.metrics["cpu_s"] = median(cpus)
		r.metrics["peak_rss_mb"] = peakMB
	}
	return r, nil
}

// tracerOf returns the tracer holding a workload's spans.
func tracerOf(w workload) *tracer {
	switch w := w.(type) {
	case *inproc:
		return w.tr
	case *fleet:
		return w.tr
	}
	return newTracer()
}

// runProbe times one set-up in a fresh process of this binary.
func runProbe(o options, i int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-probe", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-xfdetector", o.exe,
		"-workdir", filepath.Join(o.workdir, fmt.Sprintf("probe%d", i)))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup probe %d: %w", i, err)
	}
	lines := strings.Fields(string(out))
	if len(lines) == 0 {
		return 0, fmt.Errorf("setup probe %d printed nothing", i)
	}
	return strconv.ParseFloat(lines[len(lines)-1], 64)
}

// print writes the human-readable summary and then, as the last line, the
// JSON result.
func (r *report) print(o options) {
	var b bytes.Buffer
	mode := "untraced"
	if o.trace == 1 {
		mode = fmt.Sprintf("traced (%d of them traced)", r.traced)
	}
	fmt.Fprintf(&b, "perfbench %s seed %d: %d campaigns in %.1f s, %s\n",
		o.workload, o.seed, r.campaigns, r.elapsed.Seconds(), mode)
	list := endToEnd
	if o.trace == 1 {
		list = perLayer
	}
	out := map[string]any{}
	for _, m := range list {
		v := r.metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		note := ""
		switch m.name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", len(r.setups))
		case "campaign_p50_s":
			note = fmt.Sprintf("median of %d campaigns", r.campaigns)
		case "campaign_tail_s":
			note = fmt.Sprintf("p%.0f of %d campaigns (highest percentile with >= %d beyond it)", r.tailPct, r.campaigns, tailBeyond)
		}
		fmt.Fprintf(&b, "  %-26s %14.6f %-6s %s\n", m.name, v, m.unit, note)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	if o.trace == 0 {
		for _, m := range summaryOnly {
			fmt.Fprintf(&b, "  %-26s %14.6f %-6s (summary only)\n", m.name, r.metrics[m.name], m.unit)
		}
	}
	fmt.Fprintf(&b, "  %d of %d failure points not settled\n", r.failed, r.attempted)
	if r.checkErr != nil {
		fmt.Fprintf(&b, "  OUTPUT CHECK FAILED: %v\n", r.checkErr)
	}
	os.Stdout.Write(b.Bytes())
	line, _ := json.Marshal(map[string]any{
		"correct":   r.checkErr == nil && r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Println(string(line))
}
