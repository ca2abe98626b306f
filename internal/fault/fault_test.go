package fault

import (
	"math"
	"strings"
	"testing"
)

func TestZeroProfileDisabled(t *testing.T) {
	var p Profile
	if p.Enabled() {
		t.Fatal("zero profile enabled")
	}
	if p.rber(1000, 100) != 0 {
		t.Fatal("zero profile has nonzero RBER")
	}
	if p.opFailProb(0, 1000, 100) != 0 {
		t.Fatal("zero profile has nonzero failure probability")
	}
}

func TestForName(t *testing.T) {
	for _, name := range []string{"none", "fresh", "worn", "eol"} {
		p, err := ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name {
			t.Fatalf("ForName(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := ForName("bogus"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if p, _ := ForName("none"); p.Enabled() {
		t.Fatal(`"none" profile must be disabled`)
	}
}

func TestRBERGrowsWithWearAndRetention(t *testing.T) {
	p, _ := ForName("fresh")
	const endurance = 100000
	fresh := p.rber(0, endurance)
	worn := p.rber(endurance, endurance)
	if worn <= fresh {
		t.Fatalf("RBER did not grow with wear: %v -> %v", fresh, worn)
	}
	// WearGrowth 4.6 means ~100x at rated endurance.
	if ratio := worn / fresh; ratio < 50 || ratio > 200 {
		t.Fatalf("wear growth ratio %v, want ~100x", ratio)
	}
	aged := p
	aged.RetentionDays = 365
	if aged.rber(0, endurance) <= fresh {
		t.Fatal("RBER did not grow with retention age")
	}
	// The model caps at 0.5 (a fair coin per bit) no matter the abuse.
	extreme := Profile{BaseRBER: 0.4, WearGrowth: 50, RetentionGrowth: 10, RetentionDays: 1000}
	if r := extreme.rber(1000, 10); r > 0.5 {
		t.Fatalf("RBER %v exceeds 0.5 cap", r)
	}
}

func TestOpFailProbScalesAndCaps(t *testing.T) {
	p := Profile{ProgramFailProb: 1e-4}
	base := p.opFailProb(p.ProgramFailProb, 0, 1000)
	eol := p.opFailProb(p.ProgramFailProb, 1000, 1000)
	if eol != 10*base {
		t.Fatalf("end-of-life failure probability %v, want 10x base %v", eol, base)
	}
	if got := p.opFailProb(0.5, 10000, 10); got != 1 {
		t.Fatalf("failure probability %v, want capped at 1", got)
	}
}

func TestClassifyBoundaries(t *testing.T) {
	ecc := ECC{CodewordBytes: 1024, CorrectableBits: 8, RetryBits: 4, MaxRetries: 3}
	cases := []struct {
		worst   int
		class   ReadClass
		retries int
	}{
		{0, ReadClean, 0},
		{1, ReadCorrected, 0},
		{8, ReadCorrected, 0},
		{9, ReadRetried, 1},
		{12, ReadRetried, 1},
		{13, ReadRetried, 2},
		{20, ReadRetried, 3},
		{21, ReadUncorrectable, 3},
		{1000, ReadUncorrectable, 3},
	}
	for _, c := range cases {
		got := ecc.Classify(c.worst, int64(c.worst))
		if got.Class != c.class || got.Retries != c.retries {
			t.Fatalf("Classify(worst=%d) = %+v, want class %v retries %d",
				c.worst, got, c.class, c.retries)
		}
	}
}

func TestClassifyZeroRetryBits(t *testing.T) {
	// A degenerate ladder (RetryBits 0) must not divide by zero.
	ecc := ECC{CodewordBytes: 512, CorrectableBits: 2, RetryBits: 0, MaxRetries: 1}
	if got := ecc.Classify(3, 3); got.Class != ReadRetried || got.Retries != 1 {
		t.Fatalf("Classify with zero RetryBits = %+v", got)
	}
}

func TestReadClassString(t *testing.T) {
	for c, want := range map[ReadClass]string{
		ReadClean: "clean", ReadCorrected: "corrected",
		ReadRetried: "retried", ReadUncorrectable: "uncorrectable",
	} {
		if c.String() != want {
			t.Fatalf("%d.String() = %q", int(c), c.String())
		}
	}
}

func testConfig(prof Profile) Config {
	return Config{
		Profile:       prof,
		ECC:           ECC{CodewordBytes: 1024, CorrectableBits: 8, RetryBits: 4, MaxRetries: 3},
		PageSize:      4096,
		PagesPerBlock: 64,
		RowSize:       8,
		TotalBlocks:   256,
		Endurance:     100000,
		Seed:          42,
	}
}

func TestInjectorRejectsBadGeometry(t *testing.T) {
	cfg := testConfig(Profile{})
	cfg.PageSize = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero page size accepted")
	}
}

func TestInjectorRejectsNegativeAgingAndSpares(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"retention days": func(c *Config) { c.RetentionDays = -30 },
		"precycle":       func(c *Config) { c.PrecyclePE = -3000 },
		"spare blocks":   func(c *Config) { c.Profile.SpareBlocks = -1 },
	} {
		cfg := testConfig(Profile{BaseRBER: 1e-5})
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("negative %s accepted", name)
		}
	}
}

func TestDisabledInjectorDrawsNothing(t *testing.T) {
	inj, err := New(testConfig(Profile{}))
	if err != nil {
		t.Fatal(err)
	}
	if inj.Enabled() {
		t.Fatal("zero-profile injector claims enabled")
	}
	for ppn := int64(0); ppn < 1000; ppn++ {
		if rr := inj.ReadPage(ppn); rr != (ReadResult{}) {
			t.Fatalf("disabled injector returned %+v", rr)
		}
		if inj.OnProgram(ppn) || inj.OnErase(ppn) {
			t.Fatal("disabled injector injected a failure")
		}
	}
	// Proof the RNG was never touched: the stream starts at its first draw.
	before := *inj.rng
	inj.ReadPage(0)
	inj.OnProgram(0)
	if *inj.rng != before {
		t.Fatal("disabled injector consumed RNG state")
	}
}

func TestInjectorDeterministic(t *testing.T) {
	prof, _ := ForName("eol")
	run := func() Counts {
		inj, err := New(testConfig(prof))
		if err != nil {
			t.Fatal(err)
		}
		for ppn := int64(0); ppn < 5000; ppn++ {
			inj.ReadPage(ppn)
			inj.OnProgram(ppn)
			inj.OnErase(ppn)
		}
		return inj.Counts()
	}
	if run() != run() {
		t.Fatal("same seed, different fault behavior")
	}
}

func TestInjectorSeedChangesStream(t *testing.T) {
	prof, _ := ForName("eol")
	run := func(seed uint64) Counts {
		cfg := testConfig(prof)
		cfg.Seed = seed
		cfg.ECC = ECC{CodewordBytes: 1024, CorrectableBits: 60, RetryBits: 8, MaxRetries: 5}
		inj, _ := New(cfg)
		for ppn := int64(0); ppn < 5000; ppn++ {
			inj.ReadPage(ppn)
		}
		return inj.Counts()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical fault counts")
	}
}

func TestEOLProducesAllReadClasses(t *testing.T) {
	prof, _ := ForName("eol")
	cfg := testConfig(prof)
	cfg.ECC = ECC{CodewordBytes: 1024, CorrectableBits: 60, RetryBits: 8, MaxRetries: 5} // TLC budget
	inj, _ := New(cfg)
	for ppn := int64(0); ppn < 20000; ppn++ {
		inj.ReadPage(ppn)
	}
	c := inj.Counts()
	if c.Corrected == 0 || c.Retried == 0 || c.Uncorrectable == 0 {
		t.Fatalf("EOL class mix missing a class: %+v", c)
	}
	if c.Reads != c.Clean+c.Corrected+c.Retried+c.Uncorrectable {
		t.Fatalf("class counts don't sum to reads: %+v", c)
	}
	if got := inj.TakeUncorrectable(); got != c.Uncorrectable {
		t.Fatalf("TakeUncorrectable %d, counted %d", got, c.Uncorrectable)
	}
	if inj.TakeUncorrectable() != 0 {
		t.Fatal("TakeUncorrectable did not drain")
	}
}

func TestWearFeedsBackIntoReads(t *testing.T) {
	prof, _ := ForName("worn")
	// Hammer one block with erases, then compare its read error burden
	// against an untouched block over many samples.
	errBits := func(hammer bool) int64 {
		inj, _ := New(testConfig(prof))
		if hammer {
			for k := 0; k < 200000; k++ {
				inj.erases[0]++
			}
		}
		var total int64
		for k := 0; k < 3000; k++ {
			total += inj.ReadPage(0).CorrectedBits
		}
		c := inj.Counts()
		return total + c.Uncorrectable*1000
	}
	if errBits(true) <= errBits(false) {
		t.Fatal("wear did not increase read error burden")
	}
}

func TestProgramEraseFailuresQueueAndDrain(t *testing.T) {
	prof := Profile{ProgramFailProb: 1, EraseFailProb: 1} // fail everything
	inj, _ := New(testConfig(prof))
	if !inj.OnProgram(0) {
		t.Fatal("certain program failure did not fire")
	}
	if !inj.OnErase(100) {
		t.Fatal("certain erase failure did not fire")
	}
	fails := inj.TakeFailures()
	if len(fails) != 2 || fails[0].Op != FailProgram || fails[1].Op != FailErase {
		t.Fatalf("failures = %+v", fails)
	}
	if inj.TakeFailures() != nil {
		t.Fatal("TakeFailures did not drain")
	}
	// Failures on a block already grown bad are suppressed.
	inj.OnRetire(0)
	if inj.OnProgram(0) {
		t.Fatal("failure injected on retired block")
	}
}

func TestSparesExhaustionDegradesToReadOnly(t *testing.T) {
	prof := Profile{ProgramFailProb: 1}
	cfg := testConfig(prof)
	cfg.Profile.SpareBlocks = 3
	inj, _ := New(cfg)
	for b := int64(0); b < 3; b++ {
		if inj.ReadOnly() {
			t.Fatalf("read-only after only %d retirements", b)
		}
		inj.OnRetire(b) // block ids 0..2 are distinct eraseblocks (RowSize 8)
	}
	if !inj.ReadOnly() {
		t.Fatal("not read-only after exhausting 3 spares")
	}
	c := inj.Counts()
	if c.GrownBadBlocks != 3 || c.SparesLeft != 0 || !c.ReadOnly {
		t.Fatalf("counts after exhaustion: %+v", c)
	}
	inj.RejectOp()
	if inj.Counts().RejectedOps != 1 {
		t.Fatal("rejected op not counted")
	}
}

func TestPrecycleFoldsFracAndFlag(t *testing.T) {
	prof := Profile{BaseRBER: 1e-5, PrecycleFrac: 0.5}
	cfg := testConfig(prof)
	cfg.PrecyclePE = 1000
	inj, _ := New(cfg)
	want := int64(0.5*float64(cfg.Endurance)) + 1000
	if inj.pe(0) != want {
		t.Fatalf("precycled PE = %d, want %d", inj.pe(0), want)
	}
}

func TestRetentionDaysFoldIntoProfile(t *testing.T) {
	prof := Profile{BaseRBER: 1e-5, RetentionDays: 10}
	cfg := testConfig(prof)
	cfg.RetentionDays = 20
	inj, _ := New(cfg)
	if inj.Profile().RetentionDays != 30 {
		t.Fatalf("retention days = %v, want 30", inj.Profile().RetentionDays)
	}
}

func TestBlockOfLayout(t *testing.T) {
	inj, _ := New(testConfig(Profile{}))
	// RowSize 8, PagesPerBlock 64: pages 0..7 are row 0 of blocks 0..7; page
	// 8 is row 1 of block 0; page 512 (= 8*64) starts the next block group.
	cases := map[int64]int64{0: 0, 1: 1, 7: 7, 8: 0, 15: 7, 511: 7, 512: 8, 513: 9}
	for ppn, want := range cases {
		if got := inj.blockOf(ppn); got != want {
			t.Fatalf("blockOf(%d) = %d, want %d", ppn, got, want)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	inj, _ := New(testConfig(Profile{}))
	for _, lambda := range []float64{0.5, 5, 50} {
		var sum float64
		const n = 20000
		for k := 0; k < n; k++ {
			sum += float64(inj.poisson(lambda, math.Exp(-lambda)))
		}
		mean := sum / n
		if mean < lambda*0.9 || mean > lambda*1.1 {
			t.Fatalf("poisson(%v) mean %v over %d draws", lambda, mean, n)
		}
	}
	if inj.poisson(0, 1) != 0 || inj.poisson(-1, math.E) != 0 {
		t.Fatal("poisson of non-positive lambda must be 0")
	}
}

// TestRateMemoFollowsErase pins the per-block rate memo: a read takes the
// block's rate from its current wear, an erase of the block forgets it,
// and an injector that injects nothing never allocates the memo.
func TestRateMemoFollowsErase(t *testing.T) {
	prof, _ := ForName("worn")
	inj, _ := New(testConfig(prof))
	bits := float64(inj.ecc.CodewordBytes * 8)
	const ppn = 9
	block := inj.blockOf(ppn)
	inj.ReadPage(ppn)
	before := inj.rates[block]
	if want := inj.rberOf(block) * bits; before.lambda != want || before.limit != math.Exp(-want) {
		t.Fatalf("memo holds %+v, want lambda %v", before, want)
	}
	inj.OnErase(ppn)
	if inj.rates[block].known {
		t.Fatal("an erase kept the block's rate")
	}
	inj.ReadPage(ppn)
	after := inj.rates[block]
	if want := inj.rberOf(block) * bits; after.lambda != want || after.lambda == before.lambda {
		t.Fatalf("after an erase the memo holds %+v, want lambda %v (was %v)", after, want, before.lambda)
	}
	off, _ := New(testConfig(Profile{}))
	off.ReadPage(ppn)
	if off.rates != nil {
		t.Fatal("an injector that injects nothing allocated the rate memo")
	}
}

func TestBlockVarIsDeterministicPerBlock(t *testing.T) {
	prof, _ := ForName("eol")
	inj, _ := New(testConfig(prof))
	a, b := inj.rberOf(3), inj.rberOf(3)
	if a != b {
		t.Fatal("block quality factor not stable across calls")
	}
	distinct := map[float64]bool{}
	for blk := int64(0); blk < 32; blk++ {
		distinct[inj.rberOf(blk)] = true
	}
	if len(distinct) < 16 {
		t.Fatalf("only %d distinct block RBERs over 32 blocks; spread too narrow", len(distinct))
	}
}

func TestCountsString(t *testing.T) {
	c := Counts{Reads: 10, Clean: 5, Corrected: 3, Retried: 1, Uncorrectable: 1,
		GrownBadBlocks: 2, SparesLeft: 14, ReadOnly: true}
	s := c.String()
	for _, frag := range []string{"10 reads", "2 grown-bad", "14 spares", "read-only true"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("Counts.String() missing %q:\n%s", frag, s)
		}
	}
}
