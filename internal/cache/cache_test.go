package cache

import (
	"testing"

	"oocnvm/internal/ooc"
	"oocnvm/internal/sim"
	"oocnvm/internal/trace"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewBlockCache(0, 4096); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewBlockCache(4096, 0); err == nil {
		t.Fatal("zero block accepted")
	}
	if _, err := NewBlockCache(1024, 4096); err == nil {
		t.Fatal("capacity below one block accepted")
	}
}

func TestAccessHitMiss(t *testing.T) {
	c, _ := NewBlockCache(16*4096, 4096)
	h, m := c.Access(0, 8192) // two cold blocks
	if h != 0 || m != 2 {
		t.Fatalf("cold access: hits=%d misses=%d", h, m)
	}
	h, m = c.Access(0, 8192) // both cached now
	if h != 2 || m != 0 {
		t.Fatalf("warm access: hits=%d misses=%d", h, m)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
	if got := int64(c.lru.Len()) * c.blockSize; got != 2*4096 {
		t.Fatalf("resident = %d", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := NewBlockCache(2*4096, 4096) // two blocks
	c.Access(0, 4096)                   // block 0
	c.Access(4096, 4096)                // block 1
	c.Access(0, 4096)                   // touch 0: 1 becomes LRU
	c.Access(8192, 4096)                // block 2 evicts 1
	if h, _ := c.Access(0, 4096); h != 1 {
		t.Fatal("recently used block evicted")
	}
	if h, _ := c.Access(4096, 4096); h != 0 {
		t.Fatal("LRU block survived eviction")
	}
}

// TestOoCScanDefeatsCache is the paper's §1 argument: a scan-everything
// workload whose working set exceeds the cache never re-hits within the
// eviction window — "the act of caching and evicting the data itself" buys
// nothing.
func TestOoCScanDefeatsCache(t *testing.T) {
	wl := ooc.Workload{MatrixBytes: 64 << 20, PanelBytes: 4 << 20, Applications: 4}
	posix, err := wl.PosixTrace()
	if err != nil {
		t.Fatal(err)
	}
	var ops []trace.BlockOp
	for _, p := range posix {
		ops = append(ops, trace.BlockOp{Kind: p.Kind, Offset: p.Offset, Size: p.Size})
	}
	// Cache half the working set: with a cyclic scan and LRU, every access
	// misses even though half the data is always resident.
	s, err := RunStudySampled(ops, 32<<20, 64<<10, wl.MatrixBytes, 3.0e9, 1.0e9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.HitRate > 0.01 {
		t.Fatalf("cyclic OoC scan hit rate %.3f; LRU should thrash to zero", s.HitRate)
	}
	// Effective bandwidth degenerates to the slow path.
	if s.EffectiveBW > 1.05e9 {
		t.Fatalf("effective BW %.2e; a missing cache cannot beat the slow path", s.EffectiveBW)
	}
}

// TestHotSetRewardsCache: the contrast case — a workload with real reuse in
// a constrained window caches beautifully. The cache is not broken; the OoC
// access pattern is what defeats it.
func TestHotSetRewardsCache(t *testing.T) {
	var ops []trace.BlockOp
	for pass := 0; pass < 20; pass++ {
		for off := int64(0); off < 8<<20; off += 1 << 20 {
			ops = append(ops, trace.BlockOp{Kind: trace.Read, Offset: off, Size: 1 << 20})
		}
	}
	s, err := RunStudySampled(ops, 16<<20, 64<<10, 8<<20, 3.0e9, 1.0e9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.HitRate < 0.9 {
		t.Fatalf("hot-set hit rate %.3f; reuse within the window should cache", s.HitRate)
	}
	if s.EffectiveBW < 2.0e9 {
		t.Fatalf("effective BW %.2e; hits should pull it toward the fast path", s.EffectiveBW)
	}
}

// TestCacheLargerThanWorkingSetEventuallyWins: if the cache holds everything,
// only the first sweep misses — but the heat-up cost is the full dataset
// through the slow path, the "hours or even days" the paper cites.
func TestCacheLargerThanWorkingSetEventuallyWins(t *testing.T) {
	wl := ooc.Workload{MatrixBytes: 32 << 20, PanelBytes: 4 << 20, Applications: 8}
	posix, _ := wl.PosixTrace()
	var ops []trace.BlockOp
	for _, p := range posix {
		ops = append(ops, trace.BlockOp{Kind: p.Kind, Offset: p.Offset, Size: p.Size})
	}
	s, err := RunStudySampled(ops, 64<<20, 64<<10, wl.MatrixBytes, 3.0e9, 1.0e9, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 7 of 8 sweeps hit: 87.5%.
	if s.HitRate < 0.85 || s.HitRate > 0.90 {
		t.Fatalf("hit rate %.3f, want ~0.875", s.HitRate)
	}
	if s.HeatUp != sim.DurationForBytes(32<<20, 1.0e9) {
		t.Fatalf("heat-up %v", s.HeatUp)
	}
}

// TestHeatUpScalesWithDataset: at the paper's scales the heat-up is the
// dataset over the network — hours for multi-TB Hamiltonians.
func TestHeatUpScalesWithDataset(t *testing.T) {
	ops := []trace.BlockOp{{Kind: trace.Read, Offset: 0, Size: 1 << 20}}
	s, err := RunStudySampled(ops, 1<<30, 64<<10, 2<<40, 3.0e9, 1.0e9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.HeatUp < 30*60*sim.Second {
		t.Fatalf("heat-up of a 2 TiB working set = %v; should be on the order of hours", s.HeatUp)
	}
}

func TestRunStudyValidation(t *testing.T) {
	if _, err := RunStudySampled(nil, 1<<20, 4096, 1<<20, 0, 1, nil); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := RunStudySampled(nil, 0, 4096, 1<<20, 1, 1, nil); err == nil {
		t.Fatal("bad cache accepted")
	}
	// Writes are ignored; empty study is well-formed.
	s, err := RunStudySampled([]trace.BlockOp{{Kind: trace.Write, Size: 4096}}, 1<<20, 4096, 1<<20, 1e9, 1e9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.HitRate != 0 || s.EffectiveBW != 0 {
		t.Fatalf("empty study: %+v", s)
	}
}
