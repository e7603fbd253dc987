package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"

	"positbench/internal/stats"
)

// minBeyond is how many samples must lie above a reported percentile. With
// fewer, the percentile is just the largest few samples and moves with any
// single outlier, so it is refused rather than reported.
const minBeyond = 10

// errFewSamples reports a percentile that lacks minBeyond samples beyond it.
var errFewSamples = errors.New("too few samples beyond the percentile")

// percentileIndex returns the nearest-rank index of the q-quantile
// (0 < q < 1) in n sorted samples, or errFewSamples when fewer than
// minBeyond samples lie above it.
func percentileIndex(n int, q float64) (int, error) {
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile q=%v over %d samples: %w", q, n, errFewSamples)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, want %d: %w",
			q*100, n, beyond, minBeyond, errFewSamples)
	}
	return idx, nil
}

// percentile returns the nearest-rank q-quantile of xs (not modified).
func percentile(xs []float64, q float64) (float64, error) {
	idx, err := percentileIndex(len(xs), q)
	if err != nil {
		return 0, err
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], nil
}

// median returns the middle of xs (mean of the two middles for even n);
// it needs no samples beyond it, so it serves per-rep figures.
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

// mbPerS converts bytes moved in d into MB/s (10^6 bytes).
func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// geomeanMBs is the geometric mean over codecs of each codec's bytes ÷
// time, so every codec weighs equally however fast it is.
func geomeanMBs(bytes map[string]int64, dur map[string]time.Duration) float64 {
	rates := make([]float64, 0, len(bytes))
	for _, name := range stats.SortedKeys(bytes) {
		rates = append(rates, mbPerS(bytes[name], dur[name]))
	}
	return stats.GeoMean(rates)
}

// cpuTime returns the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MB (10^6
// bytes); Linux reports ru_maxrss in KiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// tally is the closed-loop bookkeeping of one workload: every operation
// is attempted once and ends either verified ok or failed.
type tally struct {
	attempted, ok, failed int
	logged                int
}

// record counts one operation; a non-nil err (a transport error, a wrong
// status or a byte mismatch) marks it failed. The first few failures are
// printed to stderr so a red run says why.
func (t *tally) record(what string, err error) bool {
	t.attempted++
	if err == nil {
		t.ok++
		return true
	}
	t.failed++
	if t.logged < 5 {
		t.logged++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
	return false
}

// okFrac is operations verified correct ÷ operations attempted.
func (t *tally) okFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.ok) / float64(t.attempted)
}
