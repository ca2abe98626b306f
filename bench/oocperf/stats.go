package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified. Empty input gives 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// computed the way Python's statistics.quantiles(xs, n=4) does by default
// (the "exclusive" method). It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2], nil
}

// relIQR is the distance between the first and third quartiles as a share
// of the median: the run-to-run spread the benchmark's bounds are set
// against.
func relIQR(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, fmt.Errorf("median is 0")
	}
	return (q3 - q1) / math.Abs(q2), nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailSamples is how many samples must lie beyond a percentile before the
// benchmark reports it: fewer than that and the value is one or two
// outliers, not a tail.
const tailSamples = 10

// tailPercentiles are the percentiles the tail rule chooses from, lowest
// first.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// reportable says whether percentile p of n samples has at least
// tailSamples samples beyond it. The tolerance absorbs the rounding of
// 100-p (100-99.9 is a hair below 0.1).
func reportable(p float64, n int) bool {
	return float64(n)*(100-p)/100 >= tailSamples*(1-1e-9)
}

// highestReportable returns the highest of tailPercentiles that n samples
// can report; ok is false when not even the median can be.
func highestReportable(n int) (p float64, ok bool) {
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		if reportable(tailPercentiles[i], n) {
			return tailPercentiles[i], true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p (0 < p <= 100) of an
// ascending slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tail returns percentile p of an ascending slice when the tail rule allows
// it, and otherwise the highest percentile the rule allows, so a short run
// never reports a tail it did not sample.
func tail(sorted []int64, p float64) int64 {
	if !reportable(p, len(sorted)) {
		if hp, ok := highestReportable(len(sorted)); ok {
			p = hp
		}
	}
	return percentile(sorted, p)
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSBytes returns the process's peak resident set size (VmHWM).
func peakRSSBytes() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// parseVmHWM reads the VmHWM line of a /proc/<pid>/status file, in bytes.
func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q: %w", sc.Text(), err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// runtimeSample is a snapshot of the Go runtime's cumulative allocation,
// collection and CPU counters.
type runtimeSample struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// sub returns the counters accumulated between o and r.
func (r runtimeSample) sub(o runtimeSample) runtimeSample {
	return runtimeSample{
		allocs:     r.allocs - o.allocs,
		allocBytes: r.allocBytes - o.allocBytes,
		gcCycles:   r.gcCycles - o.gcCycles,
		gcCPU:      r.gcCPU - o.gcCPU,
		totalCPU:   r.totalCPU - o.totalCPU,
	}
}
