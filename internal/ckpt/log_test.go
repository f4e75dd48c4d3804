package ckpt_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/vcache"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

var (
	realOnce            sync.Once
	realCkpt, realCache []byte
	realErr             error
)

// realFiles returns the checkpoint and the verdict-cache file of C, the
// faulty B-Tree campaign `-workload btree -init 3 -test 80 -patch
// btree-skip-add-leaf`, written as the CLI writes them under -checkpoint
// and -verdict-cache: every completed line appended to a Log and admitted
// to the cache, then the summary line.
func realFiles(tb testing.TB) (checkpoint, cache []byte) {
	tb.Helper()
	realOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ckpt-real-")
		if err != nil {
			realErr = err
			return
		}
		defer os.RemoveAll(dir)
		ckptPath, cachePath := filepath.Join(dir, "c.ckpt"), filepath.Join(dir, "c.cache")
		log, _, err := ckpt.OpenLog(ckptPath, true)
		if err != nil {
			realErr = err
			return
		}
		defer log.Close()
		vc, err := vcache.Open(cachePath)
		if err != nil {
			realErr = err
			return
		}
		defer vc.Close()
		verdicts := vc.Bind(vcache.Identity("C"))
		m, _ := workloads.MakerFor("B-Tree")
		target := workloads.DetectionTarget(m, workloads.TargetConfig{
			InitSize: 3, TestSize: 80, Updates: 1, Removes: 1, PostOps: true,
			Fault: "btree-skip-add-leaf", FaultInCreate: true,
		})
		var writeErr error
		record := func(l ckpt.Line, cache bool) {
			err := log.Append(l)
			if err == nil && cache {
				err = verdicts.Add(l)
			}
			if err != nil && writeErr == nil {
				writeErr = err
			}
		}
		res, err := core.Run(core.Config{PoolSize: 4 << 20, Verdicts: verdicts,
			OnPostRunComplete: func(fp int, fpr uint64, fresh []core.Report) {
				record(ckpt.Line{FP: fp, FPrint: fpr, Reports: fresh}, true)
			}}, target)
		if err != nil {
			realErr = err
			return
		}
		record(ckpt.Summary(res, 0), false)
		if realErr = writeErr; realErr != nil {
			return
		}
		if realCkpt, realErr = os.ReadFile(ckptPath); realErr != nil {
			return
		}
		realCache, realErr = os.ReadFile(cachePath)
	})
	if realErr != nil {
		tb.Fatalf("writing C's checkpoint and cache: %v", realErr)
	}
	return realCkpt, realCache
}

// TestLogTruncationProperty is the crash window of every append: at every
// byte offset of C's real checkpoint and verdict-cache file, the file is
// truncated, reopened through the log and appended two lines, and Read
// must return exactly the whole lines before the cut plus the two new
// ones — the torn line is cut, a missing final newline restored, and the
// whole lines keep their bytes. Each truncated file holds the (at most)
// two whole lines before the line the cut falls in, not the file's whole
// prefix: Parse reads lines independently, so the sweep stays linear in
// the file size.
func TestLogTruncationProperty(t *testing.T) {
	checkpoint, cache := realFiles(t)
	extra := []ckpt.Line{
		{FP: 1 << 20, FPrint: 7, Reports: []core.Report{{Class: core.CrossFailureRace, ReaderIP: "r.go:1", WriterIP: "w.go:2"}}},
		{FP: ckpt.SummaryFP, Total: 3},
	}
	var extraBytes []byte
	for _, l := range extra {
		data, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		extraBytes = append(append(extraBytes, data...), '\n')
	}
	for name, data := range map[string][]byte{"checkpoint": checkpoint, "cache": cache} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			whole, err := ckpt.Read(bytes.NewReader(data), name)
			if err != nil {
				t.Fatal(err)
			}
			// starts[i] and ends[i] delimit line i, ends at its newline.
			var starts, ends []int
			for off := 0; off < len(data); {
				i := bytes.IndexByte(data[off:], '\n')
				if i < 0 {
					t.Fatalf("%s does not end in a newline", name)
				}
				starts, ends = append(starts, off), append(ends, off+i)
				off += i + 1
			}
			if len(whole) != len(starts) || len(whole) < 100 {
				t.Fatalf("%s: %d lines parsed of %d, want every line of a real campaign", name, len(whole), len(starts))
			}
			path := filepath.Join(t.TempDir(), name)
			k := 0 // whole lines before the cut
			for cut := 0; cut <= len(data); cut++ {
				for k < len(ends) && ends[k] <= cut {
					k++
				}
				lo := max(k-2, 0)
				if err := os.WriteFile(path, data[starts[lo]:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				log, got, err := ckpt.OpenLogUnsynced(path)
				if err != nil {
					t.Fatalf("cut at %d: reopening: %v", cut, err)
				}
				want := whole[lo:k]
				if !sameLines(got, want) {
					t.Fatalf("cut at %d: reopened log holds %d line(s), want the %d whole one(s)", cut, len(got), len(want))
				}
				for _, l := range extra {
					if err := log.Append(l); err != nil {
						t.Fatal(err)
					}
				}
				log.Close()
				after, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				keep := starts[lo]
				if k > 0 {
					keep = ends[k-1] + 1
				}
				if wantBytes := append(append([]byte(nil), data[starts[lo]:keep]...), extraBytes...); !bytes.Equal(after, wantBytes) {
					t.Fatalf("cut at %d: file after two appends is\n%q\nwant\n%q", cut, after, wantBytes)
				}
				lines, err := ckpt.Read(bytes.NewReader(after), name)
				if err != nil {
					t.Fatalf("cut at %d: %v", cut, err)
				}
				if !sameLines(lines, append(append([]ckpt.Line(nil), want...), extra...)) {
					t.Fatalf("cut at %d: Read returned %d line(s), want the %d whole one(s) and the 2 appended", cut, len(lines), len(want))
				}
			}
		})
	}
}

// sameLines reports whether a and b hold equal lines; nil and empty are
// the same.
func sameLines(a, b []ckpt.Line) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestOpenLogExclusive: an exclusive open refuses an existing file (a
// fresh -checkpoint must not mix campaigns), a plain one appends to it,
// and a missing file is created either way.
func TestOpenLogExclusive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	log, lines, err := ckpt.OpenLog(path, true)
	if err != nil || len(lines) != 0 {
		t.Fatalf("creating: %v, %d line(s)", err, len(lines))
	}
	if err := log.Append(ckpt.Line{FP: 0}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if _, _, err := ckpt.OpenLog(path, true); !errors.Is(err, os.ErrExist) {
		t.Fatalf("exclusive open of an existing log: %v, want os.ErrExist", err)
	}
	log, lines, err = ckpt.OpenLog(path, false)
	if err != nil || len(lines) != 1 {
		t.Fatalf("reopening: %v, %d line(s), want 1", err, len(lines))
	}
	log.Close()
}

// TestLogRefusesMidFileCorruption: a corrupt line before intact ones is
// not a torn tail; the log refuses to open rather than append after it.
func TestLogRefusesMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	body := "{\"fp\":0}\n@@damaged\n{\"fp\":2}\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ckpt.OpenLog(path, false); err == nil {
		t.Fatal("opened a log with mid-file corruption")
	}
	if data, _ := os.ReadFile(path); string(data) != body {
		t.Errorf("the refused open changed the file to %q", data)
	}
}

// FuzzRead holds the checkpoint reader to its contract on arbitrary input,
// seeded from 1 KiB windows of C's real checkpoint and verdict-cache file
// (whole files would slow every fuzzing execution down): it never panics,
// it returns exactly the input's whole lines that parse — so never one the
// input did not hold whole — and the prefix Parse keeps holds exactly
// those lines.
func FuzzRead(f *testing.F) {
	checkpoint, cache := realFiles(f)
	const window = 1 << 10
	for _, data := range [][]byte{checkpoint, cache} {
		mid := len(data) / 2
		f.Add(data[:window])
		f.Add(data[mid : mid+window])
		f.Add(data[len(data)-window:])
	}
	f.Add([]byte("{\"fp\":0}\n@@damaged\n{\"fp\":2}\n"))
	f.Add([]byte("{\"id\":7,\"fpr\":42,\"reports\":[]}\n{\"fp\":-1,\"total\":3}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines, keep, err := ckpt.Parse(data, "fuzz")
		if err != nil {
			return
		}
		if keep < 0 || keep > len(data) || (keep > 0 && keep < len(data) && data[keep-1] != '\n') {
			t.Fatalf("kept prefix of %d byte(s) does not end at a line end", keep)
		}
		var whole []ckpt.Line
		for _, seg := range bytes.Split(data, []byte("\n")) {
			var l ckpt.Line
			if json.Unmarshal(bytes.TrimSpace(seg), &l) == nil {
				whole = append(whole, l)
			}
		}
		if !sameLines(lines, whole) {
			t.Fatalf("Parse returned %d line(s), the input holds %d whole ones that parse", len(lines), len(whole))
		}
		again, _, err := ckpt.Parse(data[:keep], "fuzz")
		if err != nil || !sameLines(again, lines) {
			t.Fatalf("the kept prefix parses to %d line(s) (err %v), the input to %d", len(again), err, len(lines))
		}
		read, err := ckpt.Read(bytes.NewReader(data), "fuzz")
		if err != nil || !sameLines(read, lines) {
			t.Fatalf("Read disagrees with Parse: %d line(s), err %v", len(read), err)
		}
	})
}
