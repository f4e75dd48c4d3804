package main

import (
	"encoding/json"
	"os"
	"runtime/debug"
	"testing"
	"time"
)

// TestSensitivity is the benchmark's self-check that it can see a
// regression. A CPU-bound delay injected by the benchmark's Post wrapper
// into insert_bug's program (fleet_insert's, run in-process) must push its
// campaign_p50_s past the bound in BENCHMARK.json, show up in core.post_s
// and not in the other core layers, and leave update_loop's campaign_p50_s
// and cpu_s within their bounds. The delay is worth 40% of core.post_s:
// about twice the smallest slowdown the 25% bound lets through, since a
// post-failure delay moves the 2-worker campaign roughly one for one. It
// runs about a minute of campaigns; -short skips it.
func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs about a minute of campaigns")
	}
	bounds := loadBounds(t)
	ib := pinnedInproc(t, insertBugShape)

	// Size the delay from insert_bug's own traced post-failure stages.
	traced := samples{}
	for i := 0; i < 3; i++ {
		mustCampaign(t, ib, true, traced)
	}
	postS := median(traced["core.post_s"])
	injected := 0.4 * postS
	delay := time.Duration(injected / median(traced["core.post_runs"]) * float64(time.Second))
	t.Logf("insert_bug core.post_s %.3f s; injecting %v per post-run (%.3f s per campaign)", postS, delay, injected)

	wall, _ := slowdown(t, ib, delay, 9)
	t.Logf("insert_bug campaign_p50_s %+.1f%% (bound %.0f%%)", 100*wall, 100*bounds["campaign_p50_s"])
	if wall <= bounds["campaign_p50_s"] {
		t.Errorf("insert_bug campaign_p50_s moved %+.1f%%, not past its bound %.0f%%", 100*wall, 100*bounds["campaign_p50_s"])
	}

	// Attribution runs the same program on the sequential engine, where
	// each Post span nests inside Pre. Under 2 workers Pre blocks on full
	// worker queues, so a slower post-failure stage also lengthens Pre's
	// self time there, as waiting rather than pre-failure work.
	seqShape := insertBugShape
	seqShape.workers = 1
	seq := pinnedInproc(t, seqShape)
	others := []string{"core.pre_self_s", "core.run_self_s"}
	counts := []string{"core.failure_points", "core.post_runs", "core.classes"}
	attributed := append(append([]string{"core.post_s"}, others...), counts...)
	diffs := samples{}
	for i := 0; i < 7; i++ {
		var pair [2]samples
		for side := range pair {
			pair[side] = samples{}
			seq.postDelay = time.Duration(side) * delay
			mustCampaign(t, seq, true, pair[side])
		}
		for _, name := range attributed {
			diffs.add(name, pair[1][name][0]-pair[0][name][0])
		}
	}
	seq.postDelay = 0
	grow := func(name string) float64 { return median(diffs[name]) }
	post := grow("core.post_s")
	t.Logf("sequential insert_bug: core.post_s %+.3f s, core.pre_self_s %+.3f s, core.run_self_s %+.3f s",
		post, grow("core.pre_self_s"), grow("core.run_self_s"))
	if post < injected/2 {
		t.Errorf("core.post_s grew %.3f s, less than half the %.3f s injected", post, injected)
	}
	for _, name := range others {
		if g := grow(name); g > post/4 {
			t.Errorf("%s grew %.3f s, more than a quarter of core.post_s's %.3f s: the delay is not confined to its layer", name, g, post)
		}
	}
	for _, name := range counts {
		if g := grow(name); g != 0 {
			t.Errorf("%s changed by %v under a pure delay", name, g)
		}
	}

	ul := pinnedInproc(t, updateLoopShape)
	wall, cpu := slowdown(t, ul, delay, 9)
	t.Logf("update_loop campaign_p50_s %+.1f%%, cpu_s %+.1f%%", 100*wall, 100*cpu)
	if wall > bounds["campaign_p50_s"] {
		t.Errorf("update_loop campaign_p50_s moved %+.1f%%, past its bound %.0f%%", 100*wall, 100*bounds["campaign_p50_s"])
	}
	if cpu > bounds["cpu_s"] {
		t.Errorf("update_loop cpu_s moved %+.1f%%, past its bound %.0f%%", 100*cpu, 100*bounds["cpu_s"])
	}
}

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json.
func loadBounds(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	bounds := map[string]float64{}
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, name := range []string{"campaign_p50_s", "cpu_s"} {
		if bounds[name] <= 0 {
			t.Fatalf("BENCHMARK.json has no bound for %s", name)
		}
	}
	return bounds
}

// pinnedInproc builds an in-process workload with seed 1 and pins its
// reference key set, as a benchmark run does before its timed loop.
func pinnedInproc(t *testing.T, s shape) *inproc {
	t.Helper()
	w, err := newInproc(s, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if err := w.pin(); err != nil {
		t.Fatal(err)
	}
	return w
}

func mustCampaign(t *testing.T, w *inproc, traced bool, layers samples) outcome {
	t.Helper()
	debug.FreeOSMemory() // as in the benchmark's loop
	out := w.campaign(traced, layers)
	if out.err != nil {
		t.Fatal(out.err)
	}
	return out
}

// slowdown runs pairs of untraced campaigns, one without and one with
// delay, and returns how much the delay moved wall-clock and CPU time: the
// median over pairs of delayed/undelayed - 1. Pairing neighbours, and
// alternating which of the two runs first, cancels drift in the host's
// speed across the run.
func slowdown(t *testing.T, w *inproc, delay time.Duration, pairs int) (wall, cpu float64) {
	t.Helper()
	var walls, cpus []float64
	for i := 0; i < pairs; i++ {
		var wl, cp [2]float64
		for k := range wl {
			side := (i + k) % 2
			w.postDelay = time.Duration(side) * delay
			before := readUsage()
			wl[side] = mustCampaign(t, w, false, nil).wall.Seconds()
			cp[side] = (readUsage().cpu - before.cpu).Seconds()
		}
		walls = append(walls, wl[1]/wl[0]-1)
		cpus = append(cpus, cp[1]/cp[0]-1)
	}
	w.postDelay = 0
	return median(walls), median(cpus)
}
