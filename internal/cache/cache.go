// Package cache implements the architecture the paper argues against: the
// compute-local NVM used as an "algorithmically-managed cache" in front of
// remote storage (FlashTier/Mercury-style host-side flash caches, §1 and
// related work). The paper's objection is quantitative: "for use of NVM as a
// general-purpose caching layer to work properly, the fundamental
// expectation that data is accessed more than once in a constrained window
// of time must hold true, which is often not the case with many long-running
// scientific workloads" — and such caches "may take many hours or even days
// to heat up." This package makes both effects measurable.
package cache

import (
	"container/list"
	"fmt"

	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/sim"
	"oocnvm/internal/trace"
)

// BlockCache is a host-side flash cache: an LRU set of fixed-size cache
// blocks on the local NVM, fronting remote storage. Reads are cached on
// miss (allocate-on-read); the eviction policy is strict LRU.
type BlockCache struct {
	blockSize int64
	capacity  int64 // bytes of cache space
	entries   map[int64]*list.Element
	lru       *list.List

	hits, misses int64
	insertions   int64
}

// NewBlockCache builds a cache of the given capacity and block size.
func NewBlockCache(capacity, blockSize int64) (*BlockCache, error) {
	if capacity <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("cache: capacity and block size must be positive")
	}
	if capacity < blockSize {
		return nil, fmt.Errorf("cache: capacity %d below one block %d", capacity, blockSize)
	}
	return &BlockCache{
		blockSize: blockSize,
		capacity:  capacity,
		entries:   make(map[int64]*list.Element),
		lru:       list.New(),
	}, nil
}

// Access runs one read through the cache and reports how many of its blocks
// hit. Missed blocks are inserted (evicting LRU blocks as needed).
func (c *BlockCache) Access(offset, size int64) (hitBlocks, missBlocks int64) {
	first := offset / c.blockSize
	last := (offset + size - 1) / c.blockSize
	if size <= 0 {
		return 0, 0
	}
	for b := first; b <= last; b++ {
		if el, ok := c.entries[b]; ok {
			c.lru.MoveToFront(el)
			c.hits++
			hitBlocks++
			continue
		}
		c.misses++
		missBlocks++
		c.insert(b)
	}
	return hitBlocks, missBlocks
}

func (c *BlockCache) insert(b int64) {
	for int64(c.lru.Len()+1)*c.blockSize > c.capacity {
		tail := c.lru.Back()
		if tail == nil {
			return // cache smaller than one block is rejected at New
		}
		delete(c.entries, tail.Value.(int64))
		c.lru.Remove(tail)
	}
	c.entries[b] = c.lru.PushFront(b)
	c.insertions++
}

// HitRate reports the lifetime block hit rate.
func (c *BlockCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Study drives a block trace through a cache and converts the hit rate into
// effective bandwidth given the fast (local NVM) and slow (remote) paths.
type Study struct {
	HitRate     float64
	EffectiveBW float64
	// HeatUp is the simulated time spent before the cache could possibly
	// serve steady-state hits: the time to pull one full working set through
	// the slow path.
	HeatUp sim.Time
}

// RegisterSeries registers the cache's time-resolved hit rate: per-interval
// hits over per-interval accesses, the heat-up curve the paper's caching
// critique is about.
func (c *BlockCache) RegisterSeries(ts *timeseries.Sampler) {
	ts.AddRatio("cache.hit_rate",
		func(sim.Time) float64 { return float64(c.hits) },
		func(sim.Time) float64 { return float64(c.hits + c.misses) })
}

// RunStudySampled evaluates a cache architecture on a trace. workingSet is
// the distinct byte footprint the workload cycles through; fastBW and slowBW
// are the local-NVM and remote-path bandwidths. The study is optionally
// time-resolved: each byte advances a synthetic clock at the speed of the path it took (the same
// harmonic model the end-of-run bandwidth uses), and the sampler records the
// per-interval hit rate against that clock — so the report shows the cache
// heating up over simulated time rather than one lifetime average. A nil
// sampler is the plain study.
func RunStudySampled(ops []trace.BlockOp, capacity, blockSize, workingSet int64, fastBW, slowBW float64, ts *timeseries.Sampler) (Study, error) {
	if fastBW <= 0 || slowBW <= 0 {
		return Study{}, fmt.Errorf("cache: bandwidths must be positive")
	}
	c, err := NewBlockCache(capacity, blockSize)
	if err != nil {
		return Study{}, err
	}
	if ts != nil {
		timeseries.Instrument(c, ts)
	}
	var hitBytes, missBytes int64
	var clock sim.Time
	for _, op := range ops {
		if op.Kind != trace.Read {
			continue
		}
		h, m := c.Access(op.Offset, op.Size)
		hitBytes += h * blockSize
		missBytes += m * blockSize
		if ts != nil {
			clock += sim.DurationForBytes(h*blockSize, fastBW)
			clock += sim.DurationForBytes(m*blockSize, slowBW)
			ts.Advance(clock)
		}
	}
	s := Study{HitRate: c.HitRate()}
	total := hitBytes + missBytes
	if total > 0 {
		// Harmonic blend: each byte moves at the speed of the path it took.
		t := float64(hitBytes)/fastBW + float64(missBytes)/slowBW
		s.EffectiveBW = float64(total) / t
	}
	s.HeatUp = sim.DurationForBytes(workingSet, slowBW)
	return s, nil
}
