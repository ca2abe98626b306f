package ssd

import (
	"testing"

	"oocnvm/internal/ftl"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/sim"
	"oocnvm/internal/trace"
)

// conflictTrace builds small random reads that repeatedly collide on a few
// dies — the workload PAQ exists for.
func conflictTrace(cell nvm.CellParams, n int, seed uint64) []trace.BlockOp {
	rng := sim.NewRNG(seed)
	geo := nvm.PaperGeometry()
	// Row stride: consecutive pages that land on the same die repeat every
	// Channels*Planes*DiesPerChannel pages; offsets chosen from only four
	// die rows create heavy conflicts.
	row := int64(geo.Channels*cell.Planes*geo.DiesPerChannel()) * cell.PageSize
	ops := make([]trace.BlockOp, n)
	for i := range ops {
		ops[i] = trace.BlockOp{
			Kind:   trace.Read,
			Offset: rng.Int63n(4) * row * 64,
			Size:   cell.PageSize,
		}
	}
	return ops
}

func TestPAQNeverSlowerThanFIFO(t *testing.T) {
	cell := nvm.Params(nvm.TLC)
	ops := conflictTrace(cell, 512, 3)

	fifo := newSSD(t, testConfig(nvm.TLC))
	fifoRes := fifo.Replay(ops)

	reordered := newSSD(t, testConfig(nvm.TLC))
	paq := NewPAQ(reordered, 32)
	paqRes := paq.Replay(ops)

	if paqRes.Elapsed > fifoRes.Elapsed {
		t.Fatalf("PAQ (%v) slower than FIFO (%v) on a conflict-heavy trace",
			paqRes.Elapsed, fifoRes.Elapsed)
	}
	if paqRes.DataBytes != fifoRes.DataBytes {
		t.Fatal("PAQ lost or duplicated data")
	}
}

func TestPAQImprovesConflictedWorkload(t *testing.T) {
	// Mix conflicted ops with independent ones: reordering should produce a
	// measurable win (independent requests overtake the die-blocked queue).
	cell := nvm.Params(nvm.TLC)
	geo := nvm.PaperGeometry()
	// With channel-first striping the die index advances every
	// Channels*Planes pages: this stride moves to the next die on the same
	// channel.
	dieStride := int64(geo.Channels*cell.Planes) * cell.PageSize
	// Bursty arrival: runs of same-die requests followed by runs on another
	// die. In arrival order a shallow queue serializes each burst while the
	// other die idles; a reordering window interleaves the bursts.
	var ops []trace.BlockOp
	for burst := 0; burst < 16; burst++ {
		die := int64(burst % 2)
		for i := 0; i < 16; i++ {
			ops = append(ops, trace.BlockOp{Kind: trace.Read, Offset: die * dieStride, Size: cell.PageSize})
		}
	}
	// A shallow device queue makes head-of-line blocking real: FIFO stalls
	// independent requests behind the conflicted ones, PAQ lets them pass.
	cfg := testConfig(nvm.TLC)
	cfg.QueueDepth = 2
	fifo := newSSD(t, cfg)
	fifoRes := fifo.Replay(ops)
	reordered := newSSD(t, cfg)
	paqRes := NewPAQ(reordered, 32).Replay(ops)
	if float64(paqRes.Elapsed) > 0.98*float64(fifoRes.Elapsed) {
		t.Fatalf("PAQ %v vs FIFO %v; expected a reordering win", paqRes.Elapsed, fifoRes.Elapsed)
	}
}

func TestPAQPreservesAllOperations(t *testing.T) {
	cell := nvm.Params(nvm.SLC)
	ops := conflictTrace(cell, 100, 7)
	s := newSSD(t, testConfig(nvm.SLC))
	res := NewPAQ(s, 16).Replay(ops)
	if res.Stats.Reads != 100 {
		t.Fatalf("reads = %d, want 100", res.Stats.Reads)
	}
}

func TestPAQSyncActsAsBarrier(t *testing.T) {
	cell := nvm.Params(nvm.SLC)
	s := newSSD(t, testConfig(nvm.SLC))
	q := NewPAQ(s, 8)
	q.Submit(trace.BlockOp{Kind: trace.Read, Offset: 0, Size: cell.PageSize})
	q.Submit(trace.BlockOp{Kind: trace.Read, Offset: 4 << 20, Size: cell.PageSize})
	// A sync op must flush the pending window before dispatching.
	q.Submit(trace.BlockOp{Kind: trace.Read, Offset: 8 << 20, Size: 4096, Sync: true, Meta: true})
	if len(q.pending) != 0 {
		t.Fatal("sync did not flush the window")
	}
	res := q.Finish()
	if res.Stats.Reads < 3 {
		t.Fatalf("reads = %d", res.Stats.Reads)
	}
}

func TestPAQDepthOneIsFIFO(t *testing.T) {
	cell := nvm.Params(nvm.MLC)
	ops := conflictTrace(cell, 64, 9)
	a := newSSD(t, testConfig(nvm.MLC))
	fifoRes := a.Replay(ops)
	b := newSSD(t, testConfig(nvm.MLC))
	paqRes := NewPAQ(b, 1).Replay(ops)
	if fifoRes.Elapsed != paqRes.Elapsed {
		t.Fatalf("depth-1 PAQ (%v) diverged from FIFO (%v)", paqRes.Elapsed, fifoRes.Elapsed)
	}
	// Degenerate depths normalize.
	if NewPAQ(b, -2).depth != 1 {
		t.Fatal("negative depth not normalized")
	}
}

func TestPAQDeterministic(t *testing.T) {
	cell := nvm.Params(nvm.TLC)
	ops := conflictTrace(cell, 200, 11)
	run := func() Result {
		s := newSSD(t, testConfig(nvm.TLC))
		return NewPAQ(s, 24).Replay(ops)
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed || a.Stats != b.Stats {
		t.Fatal("PAQ replay not deterministic")
	}
}

func TestPAQWithFTLDoesNotCorruptMapping(t *testing.T) {
	// The cost probe must be side-effect-free: a PAQ over an FTL replays
	// writes identically to the unwrapped FTL path.
	cell := nvm.Params(nvm.SLC)
	ops := []trace.BlockOp{
		{Kind: trace.Write, Offset: 0, Size: 4 * cell.PageSize},
		{Kind: trace.Read, Offset: 0, Size: 4 * cell.PageSize},
		{Kind: trace.Write, Offset: 10 * cell.PageSize, Size: 2 * cell.PageSize},
		{Kind: trace.Read, Offset: 10 * cell.PageSize, Size: 2 * cell.PageSize},
	}
	s := newSSD(t, testConfig(nvm.SLC))
	res := NewPAQ(s, 4).Replay(ops)
	if res.Stats.Programs != 6 || res.Stats.Reads != 6 {
		t.Fatalf("programs=%d reads=%d, want 6 and 6", res.Stats.Programs, res.Stats.Reads)
	}
}

// countingTap counts the mapping-tap calls a translator makes.
type countingTap struct{ calls int }

func (c *countingTap) MapWrite(lpn, ppn int64) { c.calls++ }
func (c *countingTap) MapRead(lpn, ppn int64)  { c.calls++ }
func (c *countingTap) MapTrim(lpn int64)       { c.calls++ }

// TestLocationsMatchReadWithoutSideEffects pins the contract PAQ's probe
// relies on: Locations yields exactly the locations Read maps the range to,
// through remapped pages too, and taps and counts nothing.
func TestLocationsMatchReadWithoutSideEffects(t *testing.T) {
	geo := nvm.PaperGeometry()
	cell := nvm.Params(nvm.SLC)
	direct := NewDirect(geo, cell)
	direct.RetireBlock(3) // remaps the block holding page 3
	f, err := ftl.New(geo, cell, ftl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Preload(64 * cell.PageSize); err != nil {
		t.Fatal(err)
	}
	f.Write(2*cell.PageSize, 3*cell.PageSize) // remaps pages 2-4
	col := obs.NewCollector()
	f.SetProbe(col)
	for _, tr := range []Translator{direct, f} {
		tap := &countingTap{}
		tr.SetMappingTap(tap)
		for _, r := range [][2]int64{{0, 8 * cell.PageSize}, {cell.PageSize + 1, 1}, {5, 0}} {
			got := tr.Locations(r[0], r[1], nil)
			calls := tap.calls
			ops := tr.Read(r[0], r[1])
			if tap.calls-calls != len(ops) {
				t.Fatalf("%T: Read tapped %d times for %d pages", tr, tap.calls-calls, len(ops))
			}
			if len(got) != len(ops) {
				t.Fatalf("%T %v: %d locations, Read maps %d pages", tr, r, len(got), len(ops))
			}
			for i := range ops {
				if got[i] != ops[i].Loc {
					t.Errorf("%T %v page %d: location %+v, Read maps %+v", tr, r, i, got[i], ops[i].Loc)
				}
			}
			tr.ReleaseOps(ops)
			tap.calls = 0
			tr.Locations(r[0], r[1], got[:0])
			if tap.calls != 0 {
				t.Errorf("%T: Locations tapped %d times", tr, tap.calls)
			}
		}
	}
	lookups := col.Reg.Counter("ftl.map.lookups").Value()
	if want := int64(9); lookups != want {
		t.Errorf("ftl.map.lookups = %d after Reads of 9 pages, want %d (Locations must count none)", lookups, want)
	}
}
