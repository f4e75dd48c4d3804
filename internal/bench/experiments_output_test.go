package bench

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// outputSections splits `xfdbench -experiment all` output into its
// sections by name; each section's text is exactly what its writer
// printed.
func outputSections(text string) map[string]string {
	sections := map[string]string{}
	for _, chunk := range strings.Split(text, "\n========== ")[1:] {
		name, body, _ := strings.Cut(chunk, " ==========\n")
		sections[name] = body
	}
	return sections
}

var (
	decimalNumber = regexp.MustCompile(`[0-9]+\.[0-9]+`)
	spaceRun      = regexp.MustCompile(` +`)
)

// maskTimings normalizes a timed section: every decimal number (a time, a
// ratio, a per-failure-point cost) becomes "#" and runs of spaces collapse
// to one, so what is left — the headers, the workload names and the
// integer counts — compares exactly across runs.
func maskTimings(s string) string {
	return spaceRun.ReplaceAllString(decimalNumber.ReplaceAllString(s, "#"), " ")
}

// firstDiff returns the first line, counted from 1, at which got and want
// differ, with both sides' text there; line is 0 when they are equal.
func firstDiff(got, want string) (line int, gotLine, wantLine string) {
	if got == want {
		return 0, "", ""
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	at := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "(end of section)"
	}
	return i + 1, at(gl), at(wl)
}

// TestExperimentsOutputCurrent: every section of the committed
// experiments_output.txt matches a fresh run of its writer, so the file
// cannot keep a report line, a header or a count that a code change has
// moved. The deterministic sections compare byte for byte; the timed ones
// (fig12a, fig12b, fig13, pruning) compare after maskTimings, so their
// failure-point, class, pruned and transaction counts still compare
// exactly.
func TestExperimentsOutputCurrent(t *testing.T) {
	raw, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	committed := outputSections(string(raw))
	for _, sec := range []struct {
		name  string
		write func(io.Writer) error
		timed bool
	}{
		{"table4", WriteTable4, false},
		{"table1", WriteTable1, false},
		{"fig12a", WriteFig12a, true},
		{"fig12b", WriteFig12b, true},
		{"fig13", WriteFig13, true},
		{"table5", WriteTable5, false},
		{"coverage", WriteCoverage, false},
		{"newbugs", NewBugsReport, false},
		{"pruning", WritePruneAblation, true},
	} {
		t.Run(sec.name, func(t *testing.T) {
			want, ok := committed[sec.name]
			if !ok {
				t.Fatalf("experiments_output.txt has no %s section", sec.name)
			}
			var buf bytes.Buffer
			if err := sec.write(&buf); err != nil {
				t.Fatal(err)
			}
			got := buf.String()
			if sec.timed {
				got, want = maskTimings(got), maskTimings(want)
			}
			if line, fresh, old := firstDiff(got, want); line != 0 {
				t.Errorf("section %s of experiments_output.txt is stale at its line %d:\n  committed: %s\n  fresh:     %s\n"+
					"regenerate it from the repo root with: go run ./cmd/xfdbench -experiment all -o experiments_output.txt",
					sec.name, line, old, fresh)
			}
		})
	}
}

// TestMaskTimingsKeepsHeadersAndCounts: masking hides run-to-run timing
// but not the text around it. The committed fig12a section compared with
// a copy whose header lacks "; median of 5 runs" (as the file read before
// it was last regenerated) differs; so does one with a failure-point
// count changed; two runs' timings do not.
func TestMaskTimingsKeepsHeadersAndCounts(t *testing.T) {
	raw, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	sec := outputSections(string(raw))["fig12a"]
	if !strings.Contains(sec, "; median of 5 runs)") {
		t.Fatal(`committed fig12a header lacks "; median of 5 runs"`)
	}
	staleHeader := strings.Replace(sec, "; median of 5 runs)", ")", 1)
	if line, _, _ := firstDiff(maskTimings(staleHeader), maskTimings(sec)); line != 1 {
		t.Errorf("a fig12a header without its run count differs at line %d, want 1", line)
	}
	var counts []string
	for _, f := range strings.Fields(strings.Split(sec, "\n")[2]) {
		if !strings.Contains(f, ".") {
			counts = append(counts, f)
		}
	}
	if len(counts) != 2 {
		t.Fatalf("fig12a's first row %q: want a workload name and a #FPs count", strings.Split(sec, "\n")[2])
	}
	staleCount := strings.Replace(sec, " "+counts[1]+"\n", " "+counts[1]+"0\n", 1)
	if line, _, _ := firstDiff(maskTimings(staleCount), maskTimings(sec)); line != 3 {
		t.Errorf("a changed #FPs count differs at line %d, want 3", line)
	}
	retimed := decimalNumber.ReplaceAllString(sec, "123.4567")
	if line, _, _ := firstDiff(maskTimings(retimed), maskTimings(sec)); line != 0 {
		t.Errorf("different timings differ after masking at line %d", line)
	}
}
