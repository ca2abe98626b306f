package fault

import (
	"fmt"
	"math"

	"oocnvm/internal/obs"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/sim"
)

// Config assembles an Injector for one device. The geometry numbers mirror
// the nvm package's page striping: pages stripe over RowSize die-planes,
// PagesPerBlock rows form one eraseblock per die-plane, and TotalBlocks is
// the device's whole eraseblock population. nvm.FaultConfig derives all of
// them from a Geometry/CellParams pair.
type Config struct {
	Profile Profile
	ECC     ECC
	// PageSize is the interface page size in bytes.
	PageSize int64
	// PagesPerBlock is the eraseblock depth in pages.
	PagesPerBlock int64
	// RowSize is the number of die-planes pages stripe over (channels ×
	// planes × dies per channel).
	RowSize int64
	// TotalBlocks is the device's eraseblock count (RowSize × blocks per plane).
	TotalBlocks int64
	// Endurance is the medium's rated P/E cycles.
	Endurance int64
	// PrecyclePE adds absolute P/E cycles on top of the profile's
	// PrecycleFrac (the -precycle flag).
	PrecyclePE int64
	// RetentionDays adds retention age on top of the profile's (the
	// -retention-days flag).
	RetentionDays float64
	Seed          uint64
}

// FailureOp distinguishes the verb that grew a bad block.
type FailureOp int

// Failure verbs.
const (
	FailProgram FailureOp = iota
	FailErase
)

// Failure records one program/erase failure awaiting controller handling.
type Failure struct {
	PPN int64
	Op  FailureOp
}

// Injector is the per-device fault state machine. It is not safe for
// concurrent use; every SSD owns exactly one, matching the single-threaded
// discrete-event core.
type Injector struct {
	prof      Profile
	ecc       ECC
	pageSize  int64
	ppb       int64
	rowSize   int64
	blocks    int64
	endurance int64
	precycle  int64

	rng        *sim.RNG
	seed       uint64
	gaussSpare float64
	gaussOK    bool

	erases   map[int64]int64 // eraseblock -> erase count this run
	bad      map[int64]bool  // grown-bad eraseblocks (dedups failure reports)
	pending  []Failure
	pendUnc  int64 // uncorrectable pages since last TakeUncorrectable
	spares   int64
	readOnly bool

	// Power-loss crash injection (ArmCrash). peOps counts NAND
	// program/erase boundaries while a plan is armed; crashed latches once
	// the plan's cut point is reached.
	crash   *CrashPlan
	peOps   int64
	crashed bool

	counts Counts
	probe  *obs.Collector
}

// New builds an injector. A disabled profile is fine: every hook returns the
// zero answer without drawing from the RNG.
func New(cfg Config) (*Injector, error) {
	if cfg.PageSize <= 0 || cfg.PagesPerBlock <= 0 || cfg.RowSize <= 0 || cfg.TotalBlocks <= 0 {
		return nil, fmt.Errorf("fault: config needs positive geometry, got %+v", cfg)
	}
	if cfg.RetentionDays < 0 || cfg.PrecyclePE < 0 || cfg.Profile.SpareBlocks < 0 {
		return nil, fmt.Errorf("fault: negative retention days (%v), precycle P/E (%d) or spare blocks (%d)",
			cfg.RetentionDays, cfg.PrecyclePE, cfg.Profile.SpareBlocks)
	}
	if cfg.ECC.CodewordBytes <= 0 {
		cfg.ECC.CodewordBytes = 1024
	}
	prof := cfg.Profile
	prof.RetentionDays += cfg.RetentionDays
	pre := cfg.PrecyclePE
	if cfg.Endurance > 0 && prof.PrecycleFrac > 0 {
		pre += int64(prof.PrecycleFrac * float64(cfg.Endurance))
	}
	spares := prof.SpareBlocks
	if spares == 0 {
		spares = 16
	}
	return &Injector{
		prof:      prof,
		ecc:       cfg.ECC,
		pageSize:  cfg.PageSize,
		ppb:       cfg.PagesPerBlock,
		rowSize:   cfg.RowSize,
		blocks:    cfg.TotalBlocks,
		endurance: cfg.Endurance,
		precycle:  pre,
		rng:       sim.NewRNG(cfg.Seed),
		seed:      cfg.Seed,
		erases:    make(map[int64]int64),
		bad:       make(map[int64]bool),
		spares:    spares,
	}, nil
}

// SetProbe attaches an observability probe mirroring every fault event into
// counters.
func (i *Injector) SetProbe(p *obs.Collector) { i.probe = p }

// Enabled reports whether the injector can do anything: a profile that
// injects errors, or an armed power-loss crash plan.
func (i *Injector) Enabled() bool { return i.prof.Enabled() || i.crash != nil }

// Profile returns the effective profile (flag adjustments folded in).
func (i *Injector) Profile() Profile { return i.prof }

// blockOf maps a physical page number to its eraseblock: pages stripe
// row-first over the die-planes, ppb consecutive rows form one block per
// die-plane.
func (i *Injector) blockOf(ppn int64) int64 {
	if ppn < 0 {
		ppn = -ppn
	}
	b := (ppn/(i.rowSize*i.ppb))*i.rowSize + ppn%i.rowSize
	return b % i.blocks
}

// pe returns the effective program/erase cycle count of a block.
func (i *Injector) pe(block int64) int64 {
	return i.precycle + i.erases[block]
}

// mix64 is the SplitMix64 finalizer, used as a stateless hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rberOf evaluates the block's error rate: the wear/retention model scaled
// by the block's deterministic quality factor. The factor is a pure hash of
// (seed, block) — stable across reads, independent of the sampling stream.
func (i *Injector) rberOf(block int64) float64 {
	r := i.prof.rber(i.pe(block), i.endurance)
	if r <= 0 || i.prof.BlockVar <= 0 {
		return r
	}
	u := float64(mix64(uint64(block)^i.seed)>>11) / (1 << 53)
	r *= math.Exp(i.prof.BlockVar * (2*u - 1))
	if r > 0.5 {
		r = 0.5
	}
	return r
}

// ReadPage samples the error behavior of one page read and returns the
// retry/uncorrectable verdict. The device charges the retry latency; the SSD
// drains uncorrectable counts via TakeUncorrectable.
func (i *Injector) ReadPage(ppn int64) ReadResult {
	if i.prof.BaseRBER <= 0 {
		return ReadResult{}
	}
	block := i.blockOf(ppn)
	lambda := i.rberOf(block) * float64(i.ecc.CodewordBytes*8)
	codewords := i.pageSize / i.ecc.CodewordBytes
	if codewords < 1 {
		codewords = 1
	}
	worst, total := 0, int64(0)
	for c := int64(0); c < codewords; c++ {
		e := i.poisson(lambda)
		total += int64(e)
		if e > worst {
			worst = e
		}
	}
	res := i.ecc.Classify(worst, total)

	i.counts.Reads++
	i.probe.Count("fault.reads", 1)
	switch res.Class {
	case ReadClean:
		i.counts.Clean++
		i.probe.Count("fault.read.clean", 1)
	case ReadCorrected:
		i.counts.Corrected++
		i.probe.Count("fault.read.corrected", 1)
	case ReadRetried:
		i.counts.Retried++
		i.probe.Count("fault.read.retried", 1)
	case ReadUncorrectable:
		i.counts.Uncorrectable++
		i.pendUnc++
		i.probe.Count("fault.read.uncorrectable", 1)
	}
	if res.CorrectedBits > 0 {
		i.counts.CorrectedBits += res.CorrectedBits
		i.probe.Count("fault.corrected_bits", res.CorrectedBits)
	}
	if res.Retries > 0 {
		i.counts.Retries += int64(res.Retries)
		i.probe.Count("fault.read.retries", int64(res.Retries))
	}
	return res
}

// OnProgram injects a program failure with the wear-scaled probability,
// queueing the failing page for controller handling. Failures on blocks
// already grown bad are suppressed (the block is being retired).
func (i *Injector) OnProgram(ppn int64) bool {
	p := i.prof.opFailProb(i.prof.ProgramFailProb, i.pe(i.blockOf(ppn)), i.endurance)
	if p <= 0 || !i.rng.Bool(p) {
		return false
	}
	if i.bad[i.blockOf(ppn)] {
		return false
	}
	i.counts.ProgramFailures++
	i.probe.Count("fault.program_failures", 1)
	i.pending = append(i.pending, Failure{PPN: ppn, Op: FailProgram})
	return true
}

// OnErase counts one erase on the page's block (feeding the wear model) and
// injects an erase failure with the wear-scaled probability.
func (i *Injector) OnErase(ppn int64) bool {
	block := i.blockOf(ppn)
	i.erases[block]++
	p := i.prof.opFailProb(i.prof.EraseFailProb, i.pe(block), i.endurance)
	if p <= 0 || !i.rng.Bool(p) {
		return false
	}
	if i.bad[block] {
		return false
	}
	i.counts.EraseFailures++
	i.probe.Count("fault.erase_failures", 1)
	i.pending = append(i.pending, Failure{PPN: ppn, Op: FailErase})
	return true
}

// TakeFailures drains the queued program/erase failures.
func (i *Injector) TakeFailures() []Failure {
	if len(i.pending) == 0 {
		return nil
	}
	out := i.pending
	i.pending = nil
	return out
}

// TakeUncorrectable drains the count of uncorrectable pages seen since the
// last call.
func (i *Injector) TakeUncorrectable() int64 {
	n := i.pendUnc
	i.pendUnc = 0
	return n
}

// OnRetire records that the controller retired the block containing ppn,
// consuming one spare. Exhausting the pool transitions the device to
// read-only.
func (i *Injector) OnRetire(ppn int64) {
	i.bad[i.blockOf(ppn)] = true
	i.counts.GrownBadBlocks++
	i.probe.Count("fault.grown_bad_blocks", 1)
	if i.spares > 0 {
		i.spares--
	}
	if i.spares == 0 {
		i.Degrade()
	}
}

// Degrade forces the read-only transition (also used when a translator
// cannot relocate a failing block at all).
func (i *Injector) Degrade() {
	if i.readOnly {
		return
	}
	i.readOnly = true
	i.counts.ReadOnly = true
	i.probe.Count("fault.readonly_transitions", 1)
}

// ReadOnly reports whether the device has degraded to read-only.
func (i *Injector) ReadOnly() bool { return i.readOnly }

// RejectOp counts one write/erase refused because the device is read-only.
func (i *Injector) RejectOp() {
	i.counts.RejectedOps++
	i.probe.Count("fault.rejected_ops", 1)
}

// RegisterSeries registers the injector's time-resolved telemetry: fault
// events per sampling interval. Registered even for a disabled profile so
// the report's series set is stable across fault configurations (the series
// are simply flat at zero).
func (i *Injector) RegisterSeries(ts *timeseries.Sampler) {
	ts.AddDelta("fault.corrected", func(sim.Time) float64 { return float64(i.counts.Corrected) })
	ts.AddDelta("fault.retried", func(sim.Time) float64 { return float64(i.counts.Retried) })
	ts.AddDelta("fault.uncorrectable", func(sim.Time) float64 { return float64(i.counts.Uncorrectable) })
	ts.AddDelta("fault.grown_bad_blocks", func(sim.Time) float64 { return float64(i.counts.GrownBadBlocks) })
}

// Counts snapshots the injector's counters.
func (i *Injector) Counts() Counts {
	c := i.counts
	c.SparesLeft = i.spares
	return c
}

// poisson draws a Poisson(lambda) variate from the injector's stream: Knuth
// for small lambda, a rounded normal approximation beyond (the error counts
// there are far above any ECC budget anyway, so the tail shape is moot).
func (i *Injector) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		limit := math.Exp(-lambda)
		k, p := 0, 1.0
		for {
			p *= i.rng.Float64()
			if p <= limit {
				return k
			}
			k++
		}
	}
	n := lambda + math.Sqrt(lambda)*i.gauss()
	if n < 0 {
		return 0
	}
	return int(n + 0.5)
}

// gauss draws a standard normal via Box-Muller, caching the paired variate.
func (i *Injector) gauss() float64 {
	if i.gaussOK {
		i.gaussOK = false
		return i.gaussSpare
	}
	u := i.rng.Float64()
	if u < 1e-300 {
		u = 1e-300
	}
	v := i.rng.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	i.gaussSpare = r * math.Sin(2*math.Pi*v)
	i.gaussOK = true
	return r * math.Cos(2*math.Pi*v)
}
