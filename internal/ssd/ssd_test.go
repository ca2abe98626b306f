package ssd

import (
	"errors"
	"strings"
	"testing"

	"oocnvm/internal/fault"
	"oocnvm/internal/ftl"
	"oocnvm/internal/interconnect"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/sim"
	"oocnvm/internal/trace"
)

func testConfig(cell nvm.CellType) Config {
	geo := nvm.PaperGeometry()
	cp := nvm.Params(cell)
	return Config{
		Geometry:   geo,
		Cell:       cp,
		Bus:        nvm.ONFi3SDR(),
		Link:       interconnect.Infinite{},
		Translator: NewDirect(geo, cp),
		Seed:       1,
	}
}

func newSSD(t *testing.T, cfg Config) *SSD {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRequiresTranslator(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"nil translator":  func(c *Config) { c.Translator = nil },
		"negative depth":  func(c *Config) { c.QueueDepth = -2 },
		"negative window": func(c *Config) { c.WindowBytes = -1 },
	} {
		cfg := testConfig(nvm.SLC)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := newSSD(t, testConfig(nvm.SLC))
	if s.win.Depth() != DefaultQueueDepth {
		t.Fatalf("queue depth = %d, want default %d", s.win.Depth(), DefaultQueueDepth)
	}
}

func TestReplayAccountsDataBytes(t *testing.T) {
	s := newSSD(t, testConfig(nvm.SLC))
	res := s.Replay([]trace.BlockOp{
		{Kind: trace.Read, Offset: 0, Size: 1 << 20},
		{Kind: trace.Read, Offset: 1 << 20, Size: 1 << 20, Meta: true},
	})
	if res.DataBytes != 1<<20 {
		t.Fatalf("data bytes = %d; metadata must not count as application data", res.DataBytes)
	}
	if res.Bandwidth <= 0 || res.Elapsed <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.MBps() != res.Bandwidth/1e6 {
		t.Fatal("MBps conversion wrong")
	}
}

func TestSyncBarrierOrdersRequests(t *testing.T) {
	// With a sync op between two reads, the second read cannot issue until
	// the sync completes; total elapsed must exceed the sum of a read and
	// the barrier's latency.
	async := newSSD(t, testConfig(nvm.TLC))
	r1 := async.Replay([]trace.BlockOp{
		{Kind: trace.Read, Offset: 0, Size: 64 << 10},
		{Kind: trace.Read, Offset: 10 << 20, Size: 4096},
		{Kind: trace.Read, Offset: 64 << 10, Size: 64 << 10},
	})
	barrier := newSSD(t, testConfig(nvm.TLC))
	r2 := barrier.Replay([]trace.BlockOp{
		{Kind: trace.Read, Offset: 0, Size: 64 << 10},
		{Kind: trace.Read, Offset: 10 << 20, Size: 4096, Sync: true},
		{Kind: trace.Read, Offset: 64 << 10, Size: 64 << 10},
	})
	if r2.Elapsed <= r1.Elapsed {
		t.Fatalf("sync barrier did not serialize: %v vs %v", r2.Elapsed, r1.Elapsed)
	}
}

func TestWindowBytesThrottles(t *testing.T) {
	run := func(window int64) sim.Time {
		cfg := testConfig(nvm.TLC)
		cfg.WindowBytes = window
		s := newSSD(t, cfg)
		var ops []trace.BlockOp
		for i := int64(0); i < 64; i++ {
			ops = append(ops, trace.BlockOp{Kind: trace.Read, Offset: i * (128 << 10), Size: 128 << 10})
		}
		return s.Replay(ops).Elapsed
	}
	narrow := run(128 << 10)
	wide := run(4 << 20)
	if narrow <= wide {
		t.Fatalf("narrow window (%v) not slower than wide (%v)", narrow, wide)
	}
}

func TestEraseKindRoutes(t *testing.T) {
	s := newSSD(t, testConfig(nvm.SLC))
	cell := nvm.Params(nvm.SLC)
	res := s.Replay([]trace.BlockOp{{Kind: trace.Erase, Offset: 0, Size: cell.BlockSize()}})
	if res.Stats.Erases == 0 {
		t.Fatal("erase op did not reach the device")
	}
}

func TestDirectReadMapping(t *testing.T) {
	geo := nvm.PaperGeometry()
	cell := nvm.Params(nvm.SLC)
	d := NewDirect(geo, cell)
	ops := d.Read(0, 4*cell.PageSize)
	if len(ops) != 4 {
		t.Fatalf("ops = %d, want 4", len(ops))
	}
	for i, op := range ops {
		want := geo.MapLogical(int64(i), cell.Planes)
		if op.Loc != want || op.Op != nvm.OpRead {
			t.Fatalf("op %d = %+v, want loc %+v", i, op, want)
		}
	}
	if d.Read(0, 0) != nil {
		t.Fatal("zero read not empty")
	}
}

func TestDirectWriteMapping(t *testing.T) {
	geo := nvm.PaperGeometry()
	cell := nvm.Params(nvm.MLC)
	d := NewDirect(geo, cell)
	ops := d.Write(cell.PageSize, cell.PageSize)
	if len(ops) != 1 || ops[0].Op != nvm.OpProgram {
		t.Fatalf("ops = %v", ops)
	}
}

func TestDirectEraseMapping(t *testing.T) {
	geo := nvm.PaperGeometry()
	cell := nvm.Params(nvm.SLC)
	d := NewDirect(geo, cell)
	ops := d.Erase(0, 2*cell.BlockSize())
	if len(ops) != 2 {
		t.Fatalf("erase ops = %d, want 2", len(ops))
	}
	for _, op := range ops {
		if op.Op != nvm.OpErase {
			t.Fatal("wrong verb")
		}
	}
	// Zero size defaults to one block.
	if got := len(d.Erase(0, 0)); got != 1 {
		t.Fatalf("default erase ops = %d, want 1", got)
	}
}

func TestDirectCapacityWraps(t *testing.T) {
	geo := nvm.PaperGeometry()
	cell := nvm.Params(nvm.SLC)
	d := NewDirect(geo, cell)
	// Reads past the end of the device wrap rather than exploding.
	ops := d.Read(d.CapacityBytes()-cell.PageSize, 2*cell.PageSize)
	if len(ops) != 2 {
		t.Fatalf("ops = %d", len(ops))
	}
}

func TestReplayDeterministic(t *testing.T) {
	mk := func() Result {
		s := newSSD(t, testConfig(nvm.MLC))
		var ops []trace.BlockOp
		for i := int64(0); i < 32; i++ {
			ops = append(ops, trace.BlockOp{Kind: trace.Read, Offset: i * (1 << 20), Size: 1 << 20})
			if i%8 == 7 {
				ops = append(ops, trace.BlockOp{Kind: trace.Write, Offset: 1 << 30, Size: 16 << 10, Meta: true})
			}
		}
		return s.Replay(ops)
	}
	a, b := mk(), mk()
	if a.Elapsed != b.Elapsed || a.Bandwidth != b.Bandwidth || a.Stats != b.Stats {
		t.Fatal("replay not deterministic")
	}
}

func TestBandwidthOrderingByMedium(t *testing.T) {
	// Under an identical big sequential workload, faster media are not
	// slower: PCM/SLC >= MLC >= TLC.
	bw := func(cell nvm.CellType) float64 {
		s := newSSD(t, testConfig(cell))
		var ops []trace.BlockOp
		for i := int64(0); i < 16; i++ {
			ops = append(ops, trace.BlockOp{Kind: trace.Read, Offset: i * (4 << 20), Size: 4 << 20})
		}
		return s.Replay(ops).Bandwidth
	}
	tlc, mlc, slc := bw(nvm.TLC), bw(nvm.MLC), bw(nvm.SLC)
	if tlc > mlc*1.01 || mlc > slc*1.01 {
		t.Fatalf("medium ordering violated: TLC %.0f MLC %.0f SLC %.0f", tlc/1e6, mlc/1e6, slc/1e6)
	}
}

// TestSubmitNopProbeZeroAllocs proves the disabled-observability hot path
// (a nil probe) adds no allocations to SSD.Submit. Zero-size ops keep the translator and
// window heap out of the picture so the probe calls are the only suspects.
func TestSubmitNopProbeZeroAllocs(t *testing.T) {
	s := newSSD(t, testConfig(nvm.SLC))
	op := trace.BlockOp{Kind: trace.Read, Offset: 0, Size: 0}
	s.Submit(op) // warm the window heap
	allocs := testing.AllocsPerRun(1000, func() {
		s.Submit(op)
	})
	if allocs != 0 {
		t.Fatalf("Submit with a nil probe allocates %.1f per call", allocs)
	}
}

// TestSubmitStoresNoSpanZeroAllocs pins that Submit builds span attrs only
// for spans a tracer stores. A 64 KiB read allocates nothing with a
// registry-only collector, or with a tracer past its cap, and the full
// tracer still counts every span it drops.
func TestSubmitStoresNoSpanZeroAllocs(t *testing.T) {
	op := trace.BlockOp{Kind: trace.Read, Offset: 0, Size: 64 << 10}
	t.Run("registry-only", func(t *testing.T) {
		cfg := testConfig(nvm.SLC)
		cfg.Probe = &obs.Collector{Reg: obs.NewRegistry()}
		s := newSSD(t, cfg)
		s.Submit(op)
		if allocs := testing.AllocsPerRun(100, func() { s.Submit(op) }); allocs != 0 {
			t.Fatalf("Submit with a registry-only collector allocates %.1f per call", allocs)
		}
	})
	t.Run("full-tracer", func(t *testing.T) {
		c := obs.NewCollector()
		for i := 0; i < obs.DefaultTraceLimit; i++ {
			c.Tr.Span("test", "fill", "fill", 0, 0)
		}
		cfg := testConfig(nvm.SLC)
		cfg.Probe = c
		s := newSSD(t, cfg)
		before := c.Tr.Dropped()
		s.Submit(op)
		per := c.Tr.Dropped() - before
		if per == 0 {
			t.Fatal("a Submit past the cap counted no dropped span")
		}
		before = c.Tr.Dropped()
		if allocs := testing.AllocsPerRun(100, func() { s.Submit(op) }); allocs != 0 {
			t.Fatalf("Submit with a full tracer allocates %.1f per call", allocs)
		}
		// AllocsPerRun runs the function once more to warm up.
		if got := c.Tr.Dropped() - before; got != 101*per {
			t.Fatalf("101 Submits dropped %d spans, want %d", got, 101*per)
		}
	})
}

func TestProbeCollectsRequestMetrics(t *testing.T) {
	c := obs.NewCollector()
	cfg := testConfig(nvm.SLC)
	cfg.Probe = c
	s := newSSD(t, cfg)
	res := s.Replay([]trace.BlockOp{
		{Kind: trace.Read, Offset: 0, Size: 1 << 20},
		{Kind: trace.Write, Offset: 1 << 20, Size: 64 << 10, Meta: true},
	})
	if got := c.Reg.Counter("ssd.ops").Value(); got != 2 {
		t.Fatalf("ssd.ops = %d, want 2", got)
	}
	if got := c.Reg.Counter("ssd.data_bytes").Value(); got != 1<<20 {
		t.Fatalf("ssd.data_bytes = %d, want %d (meta excluded)", got, 1<<20)
	}
	if got := c.Reg.Histogram("ssd.request.latency").Count(); got != 2 {
		t.Fatalf("latency observations = %d, want 2", got)
	}
	if c.Tr.Len() == 0 {
		t.Fatal("no SSD request spans traced")
	}
	if got := c.Reg.Gauge("ssd.span_ps").Value(); got != float64(res.Elapsed) {
		t.Fatalf("ssd.span_ps gauge = %v, want %v", got, float64(res.Elapsed))
	}
	if got := c.Reg.Gauge("ssd.bandwidth_bps").Value(); got != res.Bandwidth {
		t.Fatalf("ssd.bandwidth_bps gauge = %v, want %v", got, res.Bandwidth)
	}
	// Device spans flow through the same probe.
	var sawNVM bool
	for _, sp := range c.Tr.Spans() {
		if sp.Layer == obs.LayerNVM {
			sawNVM = true
			break
		}
	}
	if !sawNVM {
		t.Fatal("device did not emit NVM-layer spans through the SSD probe")
	}
}

func TestResultString(t *testing.T) {
	s := newSSD(t, testConfig(nvm.SLC))
	res := s.Replay([]trace.BlockOp{{Kind: trace.Read, Offset: 0, Size: 1 << 20}})
	out := res.String()
	for _, want := range []string{"elapsed", "bandwidth", "media ops", "channel util", "bus occupancy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Result.String missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("Result.String must end with a newline")
	}
}

func TestFinishIdempotentAccumulation(t *testing.T) {
	s := newSSD(t, testConfig(nvm.SLC))
	s.Submit(trace.BlockOp{Kind: trace.Read, Offset: 0, Size: 1 << 20})
	r1 := s.Finish()
	s.Submit(trace.BlockOp{Kind: trace.Read, Offset: 1 << 20, Size: 1 << 20})
	r2 := s.Finish()
	if r2.DataBytes != 2<<20 {
		t.Fatalf("accumulated data bytes = %d", r2.DataBytes)
	}
	if r2.Elapsed <= r1.Elapsed {
		t.Fatal("second batch did not extend the span")
	}
}

func TestSubmitOutOfRangeTypedError(t *testing.T) {
	s := newSSD(t, testConfig(nvm.SLC))
	cap := s.trans.CapacityBytes()
	for _, op := range []trace.BlockOp{
		{Kind: trace.Read, Offset: cap, Size: 4096},
		{Kind: trace.Read, Offset: cap - 4096, Size: 8192},
		{Kind: trace.Write, Offset: -4096, Size: 4096},
		{Kind: trace.Erase, Offset: 0, Size: -1},
	} {
		before := s.Dev.Stats()
		at, err := s.Submit(op)
		if !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("Submit(%+v) error = %v, want ErrOutOfRange", op, err)
		}
		if at != s.clock {
			t.Fatal("rejected op advanced time")
		}
		if after := s.Dev.Stats(); after.Reads != before.Reads || after.Programs != before.Programs {
			t.Fatalf("rejected op touched the media: %+v", op)
		}
	}
	// The error is sticky and retrievable after a batch replay.
	if s.Err() == nil {
		t.Fatal("Err() lost the rejection")
	}
	// In-range ops at the exact boundary still work.
	s2 := newSSD(t, testConfig(nvm.SLC))
	if _, err := s2.Submit(trace.BlockOp{Kind: trace.Read, Offset: cap - 4096, Size: 4096}); err != nil {
		t.Fatalf("boundary op rejected: %v", err)
	}
}

func faultedConfig(t *testing.T, cell nvm.CellType, prof fault.Profile, spares int64) Config {
	t.Helper()
	cfg := testConfig(cell)
	fc := nvm.FaultConfig(cfg.Geometry, cfg.Cell, prof, cfg.Seed)
	fc.Profile.SpareBlocks = spares
	inj, err := fault.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = inj
	return cfg
}

// TestZeroFaultProfileBitIdentical is the reproducibility acceptance test:
// attaching a zeroed fault profile must leave a replay bit-identical to a
// run with no injector at all — same elapsed picoseconds, same stats, same
// latency percentiles.
func TestZeroFaultProfileBitIdentical(t *testing.T) {
	mkOps := func() []trace.BlockOp {
		var ops []trace.BlockOp
		for i := int64(0); i < 24; i++ {
			ops = append(ops, trace.BlockOp{Kind: trace.Read, Offset: i * (1 << 20), Size: 1 << 20})
			if i%6 == 5 {
				ops = append(ops, trace.BlockOp{Kind: trace.Write, Offset: i << 19, Size: 64 << 10, Sync: i%12 == 11})
			}
		}
		return ops
	}
	bare := newSSD(t, testConfig(nvm.MLC))
	r1 := bare.Replay(mkOps())
	l1 := bare.Dev.Latency()

	zeroed := newSSD(t, faultedConfig(t, nvm.MLC, fault.Profile{Name: "none"}, 0))
	if zeroed.faults != nil {
		t.Fatal("disabled injector was attached to the drive")
	}
	r2 := zeroed.Replay(mkOps())
	l2 := zeroed.Dev.Latency()

	if r1.Elapsed != r2.Elapsed || r1.Stats != r2.Stats || r1.Bandwidth != r2.Bandwidth {
		t.Fatalf("zeroed profile perturbed the replay:\n%+v\nvs\n%+v", r1, r2)
	}
	if l1 != l2 {
		t.Fatalf("zeroed profile perturbed latency percentiles: %+v vs %+v", l1, l2)
	}
	if r2.Faults != (fault.Counts{}) {
		t.Fatalf("zeroed profile counted faults: %+v", r2.Faults)
	}
}

// TestEOLFaultCountersDeterministic is the end-of-life acceptance test: a
// TLC drive on the eol profile must show corrected, retried AND
// uncorrectable reads, charge retry latency into the device's stage
// histograms, surface the typed uncorrectable error — and do all of it
// bit-identically for a fixed seed.
func TestEOLFaultCountersDeterministic(t *testing.T) {
	prof, err := fault.ForName("eol")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (Result, error, int64) {
		c := obs.NewCollector()
		cfg := faultedConfig(t, nvm.TLC, prof, 0)
		cfg.Probe = c
		s := newSSD(t, cfg)
		var ops []trace.BlockOp
		for i := int64(0); i < 48; i++ {
			ops = append(ops, trace.BlockOp{Kind: trace.Read, Offset: i * (1 << 20), Size: 512 << 10})
		}
		res := s.Replay(ops)
		c.Reg.Absorb(s.Dev.Registry())
		return res, s.Err(), c.Reg.Histogram("nvm.read.retry").Count()
	}
	res, firstErr, retryObs := run()
	f := res.Faults
	if f.Corrected == 0 || f.Retried == 0 || f.Uncorrectable == 0 {
		t.Fatalf("EOL run missing a read class: %+v", f)
	}
	if f.Reads != f.Clean+f.Corrected+f.Retried+f.Uncorrectable {
		t.Fatalf("read classes don't sum: %+v", f)
	}
	if retryObs == 0 {
		t.Fatal("retry latency never reached the nvm.read.retry histogram")
	}
	if !errors.Is(firstErr, fault.ErrUncorrectable) {
		t.Fatalf("first error = %v, want ErrUncorrectable", firstErr)
	}
	for _, want := range []string{"fault reads", "corrected", "uncorrectable"} {
		if !strings.Contains(res.String(), want) {
			t.Fatalf("Result.String missing %q:\n%s", want, res)
		}
	}
	res2, _, retryObs2 := run()
	if res.Elapsed != res2.Elapsed || res.Faults != res2.Faults || retryObs != retryObs2 {
		t.Fatalf("EOL replay not deterministic:\n%+v\nvs\n%+v", res.Faults, res2.Faults)
	}
}

// TestSparesExhaustedReadOnly is the graceful-degradation acceptance test:
// with every program failing and a tiny spare budget, writes must grow bad
// blocks, exhaust the spares, flip the drive to read-only, and surface the
// typed error — while reads keep completing.
func TestSparesExhaustedReadOnly(t *testing.T) {
	prof := fault.Profile{Name: "killer", ProgramFailProb: 1}
	cfg := faultedConfig(t, nvm.SLC, prof, 2)
	c := obs.NewCollector()
	cfg.Probe = c
	s := newSSD(t, cfg)
	var roErr error
	for i := int64(0); i < 64 && roErr == nil; i++ {
		_, err := s.Submit(trace.BlockOp{Kind: trace.Write, Offset: i * 4096, Size: 4096})
		if errors.Is(err, fault.ErrReadOnly) {
			roErr = err
		}
	}
	if roErr == nil {
		t.Fatal("drive never degraded to read-only")
	}
	res := s.Finish()
	if !res.Faults.ReadOnly || res.Faults.SparesLeft != 0 {
		t.Fatalf("degradation state: %+v", res.Faults)
	}
	if res.Faults.GrownBadBlocks == 0 || res.Faults.ProgramFailures == 0 {
		t.Fatalf("no grown-bad bookkeeping: %+v", res.Faults)
	}
	// Reads still flow on a read-only drive.
	if _, err := s.Submit(trace.BlockOp{Kind: trace.Read, Offset: 0, Size: 4096}); err != nil {
		t.Fatalf("read rejected on read-only drive: %v", err)
	}
	// Writes keep being refused, and the refusals are counted.
	if _, err := s.Submit(trace.BlockOp{Kind: trace.Write, Offset: 0, Size: 4096}); !errors.Is(err, fault.ErrReadOnly) {
		t.Fatalf("write on read-only drive: %v", err)
	}
	rejected := s.Finish().Faults.RejectedOps
	if rejected == 0 {
		t.Fatal("rejected writes not counted")
	}
	// The drive counts the injector's refusals like every other refusal.
	if got := c.Reg.Counter("ssd.rejected_ops").Value(); got != rejected {
		t.Fatalf("ssd.rejected_ops = %d, want the injector's %d", got, rejected)
	}
	if !errors.Is(s.Err(), fault.ErrReadOnly) && !errors.Is(s.Err(), fault.ErrUncorrectable) {
		t.Fatalf("sticky error = %v", s.Err())
	}
	if !strings.Contains(res.String(), "READ-ONLY") {
		t.Fatalf("Result.String hides the read-only state:\n%s", res)
	}
}

// TestFTLGrownBadEndToEnd drives writes through the full FTL stack with an
// aggressive failure profile and checks superblock retirement happens and
// the replay stays deterministic.
func TestFTLGrownBadEndToEnd(t *testing.T) {
	prof := fault.Profile{Name: "flaky", ProgramFailProb: 0.002}
	run := func() (Result, ftl.Stats) {
		cfg := testConfig(nvm.SLC)
		f, err := ftl.New(cfg.Geometry, cfg.Cell, ftl.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Translator = f
		fc := nvm.FaultConfig(cfg.Geometry, cfg.Cell, prof, cfg.Seed)
		fc.Profile.SpareBlocks = 64
		inj, err := fault.New(fc)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Fault = inj
		s := newSSD(t, cfg)
		var ops []trace.BlockOp
		for i := int64(0); i < 256; i++ {
			ops = append(ops, trace.BlockOp{Kind: trace.Write, Offset: (i % 64) * (256 << 10), Size: 256 << 10})
		}
		return s.Replay(ops), f.Stats()
	}
	res, st := run()
	if res.Faults.ProgramFailures == 0 || res.Faults.GrownBadBlocks == 0 {
		t.Fatalf("no failures injected: %+v", res.Faults)
	}
	if st.GrownBadSuper == 0 {
		t.Fatalf("FTL retired no superblocks: %+v", st)
	}
	res2, st2 := run()
	if res.Elapsed != res2.Elapsed || res.Faults != res2.Faults || st != st2 {
		t.Fatal("faulted FTL replay not deterministic")
	}
}

func TestDirectRetireRemapsBlock(t *testing.T) {
	geo := nvm.PaperGeometry()
	cell := nvm.Params(nvm.SLC)
	d := NewDirect(geo, cell)
	identity := d.Read(0, cell.PageSize)[0].PPN
	r := d.RetireBlock(identity)
	if !r.OK || !r.Retired {
		t.Fatalf("retire failed: %+v", r)
	}
	// The copy-out traffic covers the whole eraseblock, reads then programs.
	if int64(len(r.Ops)) != 2*int64(cell.PagesPerBlock) {
		t.Fatalf("relocation ops = %d, want %d", len(r.Ops), 2*cell.PagesPerBlock)
	}
	// The logical page now resolves into the spare region at the top.
	moved := d.Read(0, cell.PageSize)[0].PPN
	if moved == identity {
		t.Fatal("retired block still addressed")
	}
	if d.blockOf(moved) != d.totalBlocks()-1 {
		t.Fatalf("remap landed on block %d, want top spare %d", d.blockOf(moved), d.totalBlocks()-1)
	}
	// Retiring the same logical block again: already bad, no-op.
	if r2 := d.RetireBlock(identity); !r2.OK || r2.Retired {
		t.Fatalf("re-retire of bad block: %+v", r2)
	}
	// Chained failure: the spare itself dies; the logical block must follow
	// to the next spare, not a remap-of-a-remap.
	r3 := d.RetireBlock(moved)
	if !r3.OK || !r3.Retired {
		t.Fatalf("spare retire failed: %+v", r3)
	}
	again := d.Read(0, cell.PageSize)[0].PPN
	if d.blockOf(again) != d.totalBlocks()-2 {
		t.Fatalf("chained remap landed on block %d, want %d", d.blockOf(again), d.totalBlocks()-2)
	}
	// Writes and erases follow the same indirection.
	if w := d.Write(0, cell.PageSize)[0].PPN; w != again {
		t.Fatalf("write PPN %d diverges from read PPN %d", w, again)
	}
	if e := d.Erase(0, cell.BlockSize())[0].PPN; d.blockOf(e) != d.blockOf(again) {
		t.Fatal("erase not redirected")
	}
}

func TestDirectSpareExhaustion(t *testing.T) {
	geo := nvm.Geometry{Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 2, BlocksPerPlane: 40}
	cell := nvm.Params(nvm.SLC)
	d := NewDirect(geo, cell)
	retired := 0
	for b := int64(0); b < d.totalBlocks(); b++ {
		r := d.RetireBlock(d.pageIn(b, 0))
		if !r.OK {
			break
		}
		if r.Retired {
			retired++
		}
	}
	if retired != DirectSpareBlocks {
		t.Fatalf("retired %d blocks, want the %d-block spare region", retired, DirectSpareBlocks)
	}
}

func TestZeroValueDirectCannotRetire(t *testing.T) {
	d := Direct{Geo: nvm.PaperGeometry(), Cell: nvm.Params(nvm.SLC)}
	if r := d.RetireBlock(0); r.OK || r.Retired {
		t.Fatalf("zero-value Direct retired a block: %+v", r)
	}
}

func TestSamplerRecordsStackSeries(t *testing.T) {
	geo := nvm.PaperGeometry()
	cp := nvm.Params(nvm.TLC)
	f, err := ftl.New(geo, cp, ftl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(nvm.TLC)
	cfg.Link = interconnect.NewPCIeLine(interconnect.PCIeConfig{Gen: interconnect.PCIeGen3, Lanes: 4})
	cfg.Translator = f
	cfg.Sampler = timeseries.NewSampler(10*sim.Microsecond, 64)
	s := newSSD(t, cfg)

	var ops []trace.BlockOp
	for i := int64(0); i < 64; i++ {
		ops = append(ops, trace.BlockOp{Kind: trace.Write, Offset: i * (256 << 10), Size: 256 << 10})
		ops = append(ops, trace.BlockOp{Kind: trace.Read, Offset: i * (256 << 10), Size: 256 << 10})
	}
	s.Replay(ops)

	if cfg.Sampler.Len() == 0 {
		t.Fatal("sampler took no samples over a multi-op replay")
	}
	got := make(map[string]bool)
	for _, n := range cfg.Sampler.SeriesNames() {
		got[n] = true
	}
	for _, want := range []string{
		"nvm.channel_util", "nvm.die_util", "interconnect.link_occupancy",
		"ssd.queue_depth", "ssd.throughput_bps", "ssd.ops",
		"ftl.gc_runs", "ftl.write_amplification",
	} {
		if !got[want] {
			t.Errorf("missing series %q (have %v)", want, cfg.Sampler.SeriesNames())
		}
	}
	// The device did real work, so utilization and op series cannot be flat
	// zero everywhere.
	for _, sr := range cfg.Sampler.Dump().Series {
		if sr.Name != "ssd.ops" {
			continue
		}
		sum := 0.0
		for _, p := range sr.Points {
			sum += p.Value
		}
		if sum != float64(len(ops)) {
			t.Errorf("ssd.ops series sums to %v, want %d", sum, len(ops))
		}
	}
}

func TestSamplerOffLeavesResultsIdentical(t *testing.T) {
	run := func(sample bool) Result {
		cfg := testConfig(nvm.TLC)
		if sample {
			cfg.Sampler = timeseries.NewSampler(sim.Microsecond, 32)
		}
		s := newSSD(t, cfg)
		var ops []trace.BlockOp
		for i := int64(0); i < 32; i++ {
			ops = append(ops, trace.BlockOp{Kind: trace.Read, Offset: i * (1 << 20), Size: 1 << 20})
		}
		return s.Replay(ops)
	}
	off, on := run(false), run(true)
	if off.Elapsed != on.Elapsed || off.Bandwidth != on.Bandwidth {
		t.Fatalf("sampling changed the simulation: off=%+v on=%+v", off, on)
	}
}

// TestFTLOutOfRoomGoesReadOnly fills a fault-free three-superblock FTL
// drive and then overwrites a page: with no free superblock and no stale
// page to collect, the write returns ftl.ErrNoFreeSuperblock instead of
// panicking, later writes are refused with it, and reads still complete.
func TestFTLOutOfRoomGoesReadOnly(t *testing.T) {
	cfg := testConfig(nvm.SLC)
	cfg.Geometry.BlocksPerPlane = 3
	f, err := ftl.New(cfg.Geometry, cfg.Cell, ftl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Translator = f
	s := newSSD(t, cfg)
	if _, err := s.Submit(trace.BlockOp{Kind: trace.Write, Offset: 0, Size: f.CapacityBytes()}); err != nil {
		t.Fatalf("filling write: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(trace.BlockOp{Kind: trace.Write, Offset: 0, Size: 4096}); !errors.Is(err, ftl.ErrNoFreeSuperblock) {
			t.Fatalf("overwrite %d: err = %v, want ftl.ErrNoFreeSuperblock", i, err)
		}
	}
	if _, err := s.Submit(trace.BlockOp{Kind: trace.Read, Offset: 0, Size: 4096}); err != nil {
		t.Fatalf("read after exhaustion: %v", err)
	}
	if !errors.Is(s.Err(), ftl.ErrNoFreeSuperblock) {
		t.Fatalf("first error = %v, want ftl.ErrNoFreeSuperblock", s.Err())
	}
}

// TestSalvagedFTLReadOnlyFromNew builds a drive over an FTL that recovery
// salvaged after its metadata chain was corrupted. The FTL's Err carries
// ftl.ErrUnrecoverableMeta, so the drive refuses writes from its first
// request, before and after Mount, while reads keep completing; Mount books
// its duration on the Recovery attribution component.
func TestSalvagedFTLReadOnlyFromNew(t *testing.T) {
	cfg := testConfig(nvm.SLC)
	cfg.Geometry.BlocksPerPlane = 8
	f, err := ftl.New(cfg.Geometry, cfg.Cell, ftl.Config{
		Durable: ftl.DurableConfig{Enabled: true, CheckpointEveryPages: 64}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Translator = f
	s := newSSD(t, cfg)
	ps := f.PageSize()
	for i := int64(0); i < 256; i++ {
		if _, err := s.Submit(trace.BlockOp{Kind: trace.Write, Offset: (i % 64) * ps, Size: ps}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	s.Finish()
	m := f.Media()
	for seq := int64(0); seq < 4*m.MetaPages(); seq++ {
		m.CorruptMeta(seq)
	}
	rf, rep, err := ftl.Recover(cfg.Geometry, cfg.Cell, ftl.Config{}, m)
	if !errors.Is(err, ftl.ErrUnrecoverableMeta) || rep.Duration <= 0 {
		t.Fatalf("recover: err %v, duration %v; want a priced salvage mount", err, rep.Duration)
	}

	cfg.Translator = rf
	cfg.Attrib = attrib.NewRecorder(0)
	drive := newSSD(t, cfg)
	write := func(when string) {
		t.Helper()
		if _, err := drive.Submit(trace.BlockOp{Kind: trace.Write, Offset: 0, Size: ps}); !errors.Is(err, ftl.ErrUnrecoverableMeta) {
			t.Fatalf("write %s Mount: err = %v, want ftl.ErrUnrecoverableMeta", when, err)
		}
		// Refused at the door: the salvaged FTL never placed the page.
		if n := rf.Stats().HostWrites; n != 0 {
			t.Fatalf("write %s Mount reached the salvaged FTL (%d host pages)", when, n)
		}
	}
	write("before")
	if _, err := drive.Submit(trace.BlockOp{Kind: trace.Read, Offset: 0, Size: 4 * ps}); err != nil {
		t.Fatalf("read on salvaged drive: %v", err)
	}
	drive.Mount(rep.Duration)
	if got := cfg.Attrib.Summary().Totals[attrib.Recovery]; got != rep.Duration {
		t.Fatalf("Recovery component = %v, want the mount's %v", got, rep.Duration)
	}
	write("after")
	if _, err := drive.Submit(trace.BlockOp{Kind: trace.Read, Offset: ps, Size: ps}); err != nil {
		t.Fatalf("read after Mount: %v", err)
	}
}
