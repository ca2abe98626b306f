package obs

import (
	"testing"

	"oocnvm/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewRegistry().Histogram("x")
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("fresh histogram not empty: count=%d sum=%v", h.Count(), h.Sum())
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty quantile(%v) = %v, want 0", q, got)
		}
	}
	s := h.Snapshot()
	if s.P50Ps != 0 || s.P95Ps != 0 || s.P99Ps != 0 || s.MeanPs != 0 {
		t.Fatalf("empty snapshot has nonzero percentiles: %+v", s)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewRegistry().Histogram("x")
	v := 300 * sim.Nanosecond
	h.Observe(v)
	// With one sample, min == max == v, so every percentile collapses to
	// the exact observed value despite the coarse buckets.
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != v {
			t.Fatalf("quantile(%v) = %v, want %v", q, got, v)
		}
	}
	if h.Sum() != v || h.Count() != 1 {
		t.Fatalf("sum=%v count=%d", h.Sum(), h.Count())
	}
	s := h.Snapshot()
	if s.MinPs != int64(v) || s.MaxPs != int64(v) || s.MeanPs != float64(v) {
		t.Fatalf("snapshot: %+v", s)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Exact powers of two land in the bucket whose lower bound they are;
	// the quantile upper bound 2^(b+1) then clamps to the observed max, so
	// a single-valued population at a boundary is still reported exactly.
	for _, v := range []sim.Time{1, 2, 1024, 1 << 20, 1 << 40} {
		h := NewRegistry().Histogram("x")
		for i := 0; i < 10; i++ {
			h.Observe(v)
		}
		if got := h.Quantile(0.5); got != v {
			t.Fatalf("boundary value %d: p50 = %d", int64(v), int64(got))
		}
		if got := h.Quantile(0.99); got != v {
			t.Fatalf("boundary value %d: p99 = %d", int64(v), int64(got))
		}
	}
}

func TestHistogramBucketOf(t *testing.T) {
	cases := []struct {
		v sim.Time
		b int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10}, {1025, 10},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.b {
			t.Fatalf("bucketOf(%d) = %d, want %d", int64(c.v), got, c.b)
		}
	}
}

func TestHistogramPercentilesOrderedAndConservative(t *testing.T) {
	h := NewRegistry().Histogram("x")
	// 90 short, 9 medium, 1 long: p50 in the short band, p95 medium, p99+
	// long.
	for i := 0; i < 90; i++ {
		h.Observe(1 * sim.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(100 * sim.Microsecond)
	}
	h.Observe(10 * sim.Millisecond)
	p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("percentiles out of order: %v %v %v", p50, p95, p99)
	}
	if p50 < 1*sim.Microsecond || p50 >= 100*sim.Microsecond {
		t.Fatalf("p50 = %v, want in the short band", p50)
	}
	if p95 < 100*sim.Microsecond || p95 >= 10*sim.Millisecond {
		t.Fatalf("p95 = %v, want in the medium band", p95)
	}
	if p99 != 10*sim.Millisecond {
		// rank ceil(0.99*100) = 99... the 99th sample is the last medium
		// one; allow either band boundary depending on rank math, but the
		// absolute max must be reachable.
		if h.Quantile(1) != 10*sim.Millisecond {
			t.Fatalf("q100 = %v, want max", h.Quantile(1))
		}
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	h := NewRegistry().Histogram("x")
	h.Observe(-1 * sim.Second)
	if h.Sum() != 0 || h.Count() != 1 || h.Quantile(0.5) != 0 {
		t.Fatalf("negative observation not clamped: sum=%v", h.Sum())
	}
}

func TestHistogramAbsorb(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	a, b := r1.Histogram("lat"), r2.Histogram("lat")
	a.Observe(1 * sim.Microsecond)
	a.Observe(2 * sim.Microsecond)
	b.Observe(4 * sim.Microsecond)
	r1.Absorb(r2)
	if a.Count() != 3 || a.Sum() != 7*sim.Microsecond {
		t.Fatalf("absorb: count=%d sum=%v", a.Count(), a.Sum())
	}
	s := a.Snapshot()
	if s.MinPs != int64(1*sim.Microsecond) || s.MaxPs != int64(4*sim.Microsecond) {
		t.Fatalf("absorb min/max: %+v", s)
	}
	// Absorbing an empty registry changes nothing.
	r1.Absorb(NewRegistry())
	if a.Count() != 3 {
		t.Fatal("empty absorb mutated histogram")
	}
}

func TestHistogramQuantileOutOfRangeClamps(t *testing.T) {
	h := NewRegistry().Histogram("x")
	lo, hi := 100*sim.Nanosecond, 9*sim.Microsecond
	h.Observe(lo)
	h.Observe(3 * sim.Microsecond)
	h.Observe(hi)
	if got := h.Quantile(0); got != lo {
		t.Fatalf("quantile(0) = %v, want observed min %v", got, lo)
	}
	if got := h.Quantile(-0.5); got != lo {
		t.Fatalf("quantile(-0.5) = %v, want observed min %v", got, lo)
	}
	if got := h.Quantile(2); got != h.Quantile(1) {
		t.Fatalf("quantile(2) = %v, want quantile(1) = %v", got, h.Quantile(1))
	}
	if got := h.Quantile(1); got != hi {
		t.Fatalf("quantile(1) = %v, want observed max %v", got, hi)
	}
	// Out-of-range q on an empty histogram stays zero.
	e := NewRegistry().Histogram("e")
	if e.Quantile(-1) != 0 || e.Quantile(2) != 0 {
		t.Fatalf("empty out-of-range quantiles nonzero: %v %v", e.Quantile(-1), e.Quantile(2))
	}
}

// Sum reports the exact sum of observed values.
func (h *Histogram) Sum() sim.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the q-quantile as a conservative bucket upper bound,
// clamped to the exact observed [min, max]. Every input yields a defined
// value: an empty histogram returns zero for any q; q <= 0 returns the
// observed minimum, q > 1 the observed maximum; and a single-sample
// histogram collapses every quantile to that sample (the [min, max] clamp
// leaves the bucket bound nowhere else to go).
func (h *Histogram) Quantile(q float64) sim.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}
