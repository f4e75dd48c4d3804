package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// tail returns the highest order statistic of xs that has at least
// tailBeyond samples above it, with its percentile rank; ok is false when
// xs has too few samples for any such value.
func tail(xs []float64) (value, percentile float64, ok bool) {
	if len(xs) <= tailBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 1 - tailBeyond
	return s[i], 100 * float64(i) / float64(len(s)-1), true
}

// usage is a getrusage reading of this process and its reaped children.
type usage struct {
	cpu      time.Duration // user + sys, self plus children
	childRSS int64         // peak resident set of the largest reaped child, KiB
}

func readUsage() usage {
	var self, kids syscall.Rusage
	// getrusage cannot fail for RUSAGE_SELF/RUSAGE_CHILDREN with a valid
	// buffer; a zero reading would only understate cpu_s.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{
		cpu:      tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime),
		childRSS: int64(kids.Maxrss),
	}
}

// resetPeakRSS restarts this process's peak resident-set counter (VmHWM)
// at its current resident size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS counter: %w", err)
	}
	return nil
}

// peakRSS returns this process's peak resident set (VmHWM) in KiB.
func peakRSS() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// samples collects per-layer observations by metric name; each metric
// reports the median of its observations.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for name, xs := range s {
		out[name] = median(xs)
	}
	return out
}
