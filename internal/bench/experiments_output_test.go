package bench

import (
	"bytes"
	"io"
	"os"
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

// TestExperimentsOutputCurrent: the deterministic sections of the
// committed experiments_output.txt equal a fresh run of their writers, so
// the file cannot keep a report line a code change has moved. The timed
// sections (fig12a, fig12b, fig13, pruning) are not compared.
func TestExperimentsOutputCurrent(t *testing.T) {
	raw, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	committed := outputSections(string(raw))
	for _, sec := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"table4", WriteTable4},
		{"table1", WriteTable1},
		{"table5", WriteTable5},
		{"coverage", WriteCoverage},
		{"newbugs", NewBugsReport},
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
			if got == want {
				return
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
			t.Errorf("section %s of experiments_output.txt is stale at its line %d:\n  committed: %s\n  fresh:     %s\n"+
				"regenerate it from the repo root with: go run ./cmd/xfdbench -experiment all -o experiments_output.txt",
				sec.name, i+1, at(wl), at(gl))
		})
	}
}
