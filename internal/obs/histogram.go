package obs

import (
	"math/bits"
	"sync"

	"oocnvm/internal/sim"
)

// histBuckets is the fixed bucket population: bucket i counts values in
// [2^i, 2^(i+1)) picoseconds (bucket 0 additionally absorbs zero). 64
// buckets cover the whole non-negative range of sim.Time.
const histBuckets = 64

// Histogram is a fixed-bucket latency histogram over sim.Time values.
// Buckets are powers of two of picoseconds; Sum, Min and Max are exact, so
// means reconcile exactly and percentiles of a single-sample or
// single-bucket population collapse to the observed value.
type Histogram struct {
	name string

	mu      sync.Mutex
	buckets [histBuckets]int64
	count   int64
	sum     sim.Time
	min     sim.Time
	max     sim.Time
}

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v sim.Time) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) - 1
}

// Observe records one value. Negative values are clamped to zero (they can
// only arise from caller bugs; clamping keeps the histogram total-ordered).
func (h *Histogram) Observe(v sim.Time) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.buckets[bucketOf(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count reports how many values were observed.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

func (h *Histogram) quantileLocked(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based: ceil(q * count).
	rank := int64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var seen int64
	for b, n := range h.buckets {
		seen += n
		if seen >= rank {
			// Conservative upper bound of bucket b: 2^(b+1) ps.
			var upper sim.Time
			if b+1 >= 63 {
				upper = h.max
			} else {
				upper = sim.Time(int64(1) << uint(b+1))
			}
			if upper > h.max {
				upper = h.max
			}
			if upper < h.min {
				upper = h.min
			}
			return upper
		}
	}
	return h.max
}

// HistogramSnapshot is one histogram's exported summary. All duration
// fields are picoseconds (the sim.Time base unit).
type HistogramSnapshot struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	SumPs  int64   `json:"sum_ps"`
	MinPs  int64   `json:"min_ps"`
	MaxPs  int64   `json:"max_ps"`
	MeanPs float64 `json:"mean_ps"`
	P50Ps  int64   `json:"p50_ps"`
	P95Ps  int64   `json:"p95_ps"`
	P99Ps  int64   `json:"p99_ps"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Name:  h.name,
		Count: h.count,
		SumPs: int64(h.sum),
		MinPs: int64(h.min),
		MaxPs: int64(h.max),
		P50Ps: int64(h.quantileLocked(0.50)),
		P95Ps: int64(h.quantileLocked(0.95)),
		P99Ps: int64(h.quantileLocked(0.99)),
	}
	if h.count > 0 {
		s.MeanPs = float64(h.sum) / float64(h.count)
	}
	return s
}

// absorb adds o's population into h (registry merge).
func (h *Histogram) absorb(o *Histogram) {
	o.mu.Lock()
	buckets, count, sum, min, max := o.buckets, o.count, o.sum, o.min, o.max
	o.mu.Unlock()
	if count == 0 {
		return
	}
	h.mu.Lock()
	for i, n := range buckets {
		h.buckets[i] += n
	}
	if h.count == 0 || min < h.min {
		h.min = min
	}
	if max > h.max {
		h.max = max
	}
	h.count += count
	h.sum += sum
	h.mu.Unlock()
}
