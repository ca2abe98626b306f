package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which is how the benchmark's spreads are
// judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.9, 1.3, 1.0, 1.1, 1.2, 5.0}, [3]float64{0.975, 1.15, 2.225}},
	} {
		q1, q2, q3, err := quartiles(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.in, q1, q2, q3, tc.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value did not fail")
	}
	spread, err := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || math.Abs(spread-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("relIQR = %v, %v", spread, err)
	}
}

// TestTailRule checks "report the highest percentile with at least ten
// samples beyond it": Figure 8's 4,096 requests get p99 but not p99.9.
func TestTailRule(t *testing.T) {
	if !reportable(99, 4096) || reportable(99.9, 4096) {
		t.Errorf("4096 samples: p99 reportable %v, p99.9 reportable %v; want true, false",
			reportable(99, 4096), reportable(99.9, 4096))
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{4096, 99, true},
		{10000, 99.9, true},
		{999, 90, true},
		{20, 50, true},
		{19, 0, false},
	} {
		p, ok := highestReportable(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("highestReportable(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}

	sorted := make([]int64, 4096)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if got := percentile(sorted, 50); got != 2048 {
		t.Errorf("p50 of 1..4096 = %d, want 2048", got)
	}
	if got, want := tail(sorted, 99.9), percentile(sorted, 99); got != want {
		t.Errorf("tail(p99.9) of 4096 samples = %d, want the p99 %d", got, want)
	}
	if got := tail(sorted[:2000], 99); got != 1980 {
		t.Errorf("tail(p99) of 2000 samples = %d, want 1980", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\toocperf\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 123456<<10 {
		t.Errorf("parseVmHWM = %d, %v; want %d", got, err, 123456<<10)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) did not fail", bad)
		}
	}
}

func TestLiveReaders(t *testing.T) {
	rss, err := peakRSSBytes()
	if err != nil {
		t.Fatal(err)
	}
	if rss <= 0 {
		t.Errorf("peak RSS %d", rss)
	}
	before, err := cpuTime()
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	after, err := cpuTime()
	if err != nil {
		t.Fatal(err)
	}
	if after-before < 10*time.Millisecond {
		t.Errorf("50 ms of spinning used %v of CPU (x=%d)", after-before, x)
	}
	rt0 := readRuntime()
	sink = make([]byte, 1<<20)
	if d := readRuntime().sub(rt0); d.allocs == 0 || d.allocBytes < 1<<20 {
		t.Errorf("a 1 MiB allocation counted %d objects, %d bytes", d.allocs, d.allocBytes)
	}
}

var sink []byte
