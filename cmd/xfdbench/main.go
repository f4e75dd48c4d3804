// Command xfdbench regenerates the tables and figures of the paper's
// evaluation section (§6):
//
//	xfdbench -experiment fig12a     execution time per workload, pre/post split
//	xfdbench -experiment fig12b     slowdown over tracing-only and original
//	xfdbench -experiment fig13      scalability in pre-failure transactions
//	xfdbench -experiment table1     the six crash-consistency mechanisms
//	xfdbench -experiment table4     the evaluated programs
//	xfdbench -experiment table5     synthetic-bug validation
//	xfdbench -experiment coverage   Fig. 3: XFDetector vs. pre-failure tools
//	xfdbench -experiment newbugs    §6.3.2: the four new bugs
//	xfdbench -experiment pruning    crash-state pruning ablation (class counts + speedup)
//	xfdbench -experiment all        everything, in paper order
//
// It also converts `go test -bench` output into the machine-readable
// baseline format (BENCH_baseline.json at the repo root), and compares
// two such baselines as a perf-regression gate:
//
//	go test -bench . -benchtime=1x -run '^$' . | xfdbench -parse-bench - -o BENCH_baseline.json
//	xfdbench -threshold 25 -compare BENCH_baseline.json new.json
//
// -compare prints per-benchmark ns/op and post-s/op deltas and exits 1
// when any benchmark regressed more than -threshold percent.
//
// Absolute times differ from the paper's Optane testbed; the shapes —
// post-failure time dominating, linear scaling in failure points, and the
// detection-capability gaps — are the reproduction targets (see
// EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/pmemgo/xfdetector/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig12a | fig12b | fig13 | table1 | table4 | table5 | coverage | newbugs | pruning | all")
		outPath    = flag.String("o", "", "write results to this file instead of stdout")
		parseBench = flag.String("parse-bench", "", "parse `go test -bench` output from this file (- for stdin) into baseline JSON instead of running experiments")
		compare    = flag.String("compare", "", "compare this baseline JSON against the one named by the next argument; exit 1 past -threshold")
		threshold  = flag.Float64("threshold", 10, "regression threshold for -compare, in percent")
	)
	flag.Parse()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		out = f
	}

	if *compare != "" {
		if flag.NArg() != 1 {
			fatalf("-compare wants exactly one more baseline: xfdbench -compare old.json new.json")
		}
		old, err := readBaseline(*compare)
		if err != nil {
			fatalf("%v", err)
		}
		cur, err := readBaseline(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		regressed, err := bench.CompareBaselines(out, old, cur, *threshold/100)
		if err != nil {
			fatalf("%v", err)
		}
		if len(regressed) > 0 {
			os.Exit(1)
		}
		return
	}

	if *parseBench != "" {
		var in io.Reader = os.Stdin
		if *parseBench != "-" {
			f, err := os.Open(*parseBench)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			in = f
		}
		base, err := bench.ParseGoBench(in)
		if err != nil {
			fatalf("%v", err)
		}
		if err := base.WriteJSON(out); err != nil {
			fatalf("%v", err)
		}
		return
	}

	experiments := map[string]func(io.Writer) error{
		"fig12a":   bench.WriteFig12a,
		"fig12b":   bench.WriteFig12b,
		"fig13":    bench.WriteFig13,
		"table1":   bench.WriteTable1,
		"table4":   bench.WriteTable4,
		"table5":   bench.WriteTable5,
		"coverage": bench.WriteCoverage,
		"newbugs":  bench.NewBugsReport,
		"pruning":  bench.WritePruneAblation,
	}
	if *experiment == "all" {
		for _, name := range []string{"table4", "table1", "fig12a", "fig12b", "fig13", "table5", "coverage", "newbugs", "pruning"} {
			fmt.Fprintf(out, "\n========== %s ==========\n", name)
			if err := experiments[name](out); err != nil {
				fatalf("%s: %v", name, err)
			}
		}
		return
	}
	fn, ok := experiments[*experiment]
	if !ok {
		fatalf("unknown experiment %q", *experiment)
	}
	if err := fn(out); err != nil {
		fatalf("%s: %v", *experiment, err)
	}
}

// readBaseline loads one -compare operand.
func readBaseline(path string) (*bench.BenchBaseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base, err := bench.ReadBaselineJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return base, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xfdbench: "+format+"\n", args...)
	os.Exit(1)
}
