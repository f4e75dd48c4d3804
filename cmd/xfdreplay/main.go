// Command xfdreplay records and analyzes persistent-memory operation
// traces, demonstrating the frontend/backend decoupling of §5.5 of the
// paper ("the backend of XFDetector can be attached to other tracing
// frameworks"): traces recorded by the frontend can be serialized, shipped
// to another machine or process, and analyzed offline.
//
//	xfdreplay -record -workload btree -o btree.xfdt   record a trace
//	xfdreplay -analyze btree.xfdt                     offline analysis
//	xfdreplay -analyze campaign.xfdr                  analyze an artifact
//
// Offline analysis replays the trace through the persistence and
// transaction state machines and prints: an operation census, the final
// persistence census, performance bugs, and the pre-failure-only findings
// the pmemcheck-like and PMTest-like checkers would report. -analyze
// accepts both container formats by sniffing the magic: a bare XFDT trace
// (this command's own -record output) or a recorded-campaign XFDR
// artifact (xfdetector -record), whose header and failure-point count
// are printed before its embedded trace is analyzed.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/pmemgo/xfdetector/internal/baseline"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/record"
	"github.com/pmemgo/xfdetector/internal/shadow"
	"github.com/pmemgo/xfdetector/internal/trace"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

func main() {
	var (
		record   = flag.Bool("record", false, "record a trace instead of analyzing one")
		workload = flag.String("workload", "btree", "workload to record (btree | ctree | rbtree | hashmap-tx | hashmap-atomic)")
		initSize = flag.Int("init", 5, "insertions while initializing")
		testSize = flag.Int("test", 5, "insertions to trace")
		patch    = flag.String("patch", "", "synthetic bug to inject while recording")
		out      = flag.String("o", "trace.xfdt", "output file for -record")
		analyze  = flag.String("analyze", "", "trace file to analyze")
	)
	flag.Parse()

	switch {
	case *record:
		if err := doRecord(*workload, *patch, *initSize, *testSize, *out); err != nil {
			fatalf("%v", err)
		}
	case *analyze != "":
		if err := doAnalyze(*analyze); err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("pass -record or -analyze <file>")
	}
}

var shortNames = map[string]string{
	"btree":          "B-Tree",
	"ctree":          "C-Tree",
	"rbtree":         "RB-Tree",
	"hashmap-tx":     "Hashmap-TX",
	"hashmap-atomic": "Hashmap-Atomic",
}

func doRecord(workload, patch string, initSize, testSize int, out string) error {
	name, ok := shortNames[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	m, _ := workloads.MakerFor(name)
	cfg := workloads.TargetConfig{
		InitSize: initSize, TestSize: testSize, Updates: 1, Removes: 1,
		PostOps: true, Fault: patch, FaultInCreate: patch != "",
	}
	res, err := core.Run(core.Config{
		Mode: core.ModeTraceOnly, KeepTrace: true, PoolSize: 4 << 20,
	}, workloads.DetectionTarget(m, cfg))
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := res.PreTrace().WriteTo(f)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d entries (%d bytes) from %s to %s\n",
		res.PreTrace().Len(), n, name, out)
	return nil
}

func doAnalyze(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// Sniff the container: an XFDR recorded-campaign artifact embeds the
	// trace behind a header; anything else is decoded as a bare XFDT trace
	// (the legacy path this command has always read).
	var tr *trace.Trace
	switch a, err := record.Read(bytes.NewReader(data)); {
	case err == nil:
		fmt.Printf("recorded-campaign artifact: target %q, identity %016x, pool %d bytes\n",
			a.Target, a.Identity, a.PoolSize)
		fmt.Printf("  %d failure point(s)\n", len(a.FPs))
		fmt.Println()
		tr = a.Trace
	case errors.Is(err, record.ErrBadMagic):
		tr = trace.New()
		if _, err := tr.ReadFrom(bytes.NewReader(data)); err != nil {
			return fmt.Errorf("decode %s: %w", path, err)
		}
	default:
		return fmt.Errorf("decode %s: %w", path, err)
	}
	size := baseline.PoolSizeFor(tr)
	fmt.Printf("trace: %d entries, addresses up to %#x\n\n", tr.Len(), size)

	// Operation census.
	fmt.Println("operation census:")
	counts := tr.Counts()
	kinds := make([]trace.Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return counts[kinds[i]] > counts[kinds[j]] })
	for _, k := range kinds {
		fmt.Printf("  %-16s %8d\n", k, counts[k])
	}

	// Replay into a shadow PM: persistence census and performance bugs.
	sh := shadow.NewPM(size)
	var perf []shadow.PerfBug
	sh.SetPerfBugHandler(func(b shadow.PerfBug) { perf = append(perf, b) })
	for _, e := range tr.Entries() {
		sh.Apply(e)
	}
	var census [4]uint64
	for b := uint64(0); b < size; b++ {
		census[sh.State(b)]++
	}
	fmt.Printf("\nfinal persistence census (bytes): U=%d M=%d W=%d P=%d\n",
		census[shadow.Unmodified], census[shadow.Modified],
		census[shadow.WritebackPending], census[shadow.Persisted])
	if len(perf) > 0 {
		fmt.Printf("\nperformance bugs (%d):\n", len(perf))
		for _, b := range perf {
			fmt.Printf("  %s at %s on [%#x, %#x)\n", b.Kind, b.IP, b.Addr, b.Addr+b.Size)
		}
	}

	// Pre-failure-only checkers.
	printFindings := func(tool string, fs []baseline.Finding) {
		fmt.Printf("\n%s findings (%d):\n", tool, len(fs))
		if len(fs) == 0 {
			fmt.Println("  (none)")
		}
		for _, f := range fs {
			fmt.Printf("  %s\n", f)
		}
	}
	printFindings("pmemcheck-like", baseline.Pmemcheck(tr, size))
	printFindings("PMTest-like", baseline.PMTest(tr, size))

	fmt.Println("\nnote: offline analysis covers the pre-failure stage only;")
	fmt.Println("cross-failure bugs need the full detector (cmd/xfdetector).")
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xfdreplay: "+format+"\n", args...)
	os.Exit(1)
}
