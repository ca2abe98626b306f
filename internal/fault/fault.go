// Package fault models NVM reliability: a deterministic raw-bit-error-rate
// (RBER) model per page, an ECC budget that classifies every read as clean,
// corrected, retry-needed or uncorrectable, program/erase failure injection
// that grows bad blocks, and the graceful-degradation policy (spare blocks,
// then read-only) the SSD controller enforces.
//
// The package is deliberately dependency-light: it knows nothing about the
// nvm package's geometry types. Callers describe the device with plain
// numbers (pages per block, die-planes per row, total eraseblocks) and the
// nvm package provides a constructor that fills them in (nvm.FaultConfig).
//
// Everything is driven by the experiment-seeded sim.RNG, so fault behavior
// is bit-reproducible for a fixed seed, and a zeroed Profile draws nothing
// at all, leaving fault-free runs bit-identical to a build without the
// injector.
package fault

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrReadOnly is returned (wrapped) by the SSD when a write or erase reaches
// a device that has exhausted its spare blocks and degraded to read-only.
var ErrReadOnly = errors.New("fault: device is read-only (spare blocks exhausted)")

// ErrUncorrectable is returned (wrapped) by the SSD when a read contained at
// least one page whose errors exceeded the ECC budget and the retry ladder.
var ErrUncorrectable = errors.New("fault: uncorrectable read error")

// Profile parameterizes the error model. The zero value injects nothing.
//
// The RBER of a page grows with the wear of its eraseblock and with
// retention age:
//
//	rber = BaseRBER × exp(WearGrowth × PE/endurance) × (1 + RetentionGrowth × days)
//
// Program and erase failures are Bernoulli per operation, with the base
// probability scaled by (1 + 9 × PE/endurance) so failures cluster at end of
// life the way grown bad blocks do on real parts.
type Profile struct {
	Name string
	// BaseRBER is the raw bit error rate of a fresh, just-written page.
	BaseRBER float64
	// WearGrowth is ln(RBER multiplier) at rated endurance: 4.6 ≈ 100× at
	// the last rated P/E cycle.
	WearGrowth float64
	// RetentionGrowth is the fractional RBER growth per day of retention.
	RetentionGrowth float64
	// ProgramFailProb and EraseFailProb are base per-operation failure
	// probabilities.
	ProgramFailProb float64
	EraseFailProb   float64
	// PrecycleFrac pre-ages every block by this fraction of rated endurance
	// before the run starts (the paper's drives-per-year story, replayed).
	PrecycleFrac float64
	// RetentionDays ages all data by this many days.
	RetentionDays float64
	// BlockVar is the half-width, in log space, of the deterministic
	// block-to-block RBER quality spread: each eraseblock's rate is scaled
	// by a seed-hashed factor in [exp(-BlockVar), exp(+BlockVar)]. Real
	// parts show an order of magnitude of block quality variation; this is
	// what makes clean, corrected, retried and uncorrectable reads coexist
	// in a single run instead of every page landing in one class.
	BlockVar float64
	// SpareBlocks is the grown-bad budget: each block retirement consumes
	// one; at zero the device degrades to read-only. Zero selects a budget
	// of 16.
	SpareBlocks int64
}

// Enabled reports whether the profile can inject anything at all.
func (p Profile) Enabled() bool {
	return p.BaseRBER > 0 || p.ProgramFailProb > 0 || p.EraseFailProb > 0
}

// Profiles returns the named profiles, mildest first.
func Profiles() []Profile {
	return []Profile{
		{Name: "none"},
		{
			Name:            "fresh",
			BaseRBER:        1e-5,
			WearGrowth:      4.6,
			RetentionGrowth: 0.002,
			ProgramFailProb: 1e-7,
			EraseFailProb:   1e-7,
			BlockVar:        1.0,
		},
		{
			Name:            "worn",
			BaseRBER:        1e-4,
			WearGrowth:      4.6,
			RetentionGrowth: 0.005,
			ProgramFailProb: 1e-6,
			EraseFailProb:   1e-6,
			PrecycleFrac:    0.5,
			BlockVar:        1.0,
		},
		{
			Name:            "eol",
			BaseRBER:        1e-4,
			WearGrowth:      4.6,
			RetentionGrowth: 0.01,
			ProgramFailProb: 1e-4,
			EraseFailProb:   5e-5,
			PrecycleFrac:    1.0,
			BlockVar:        1.2,
		},
	}
}

// ForName returns the named profile ("none", "fresh", "worn", "eol").
func ForName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range Profiles() {
		names = append(names, p.Name)
	}
	return Profile{}, fmt.Errorf("fault: unknown profile %q (have %s)", name, strings.Join(names, ", "))
}

// ECC describes the error-correction budget of the controller for one
// medium: pages are split into codewords, each independently correctable up
// to CorrectableBits. When a codeword exceeds the budget, the controller
// walks a read-retry ladder: each stepped re-sense recovers RetryBits of
// margin, up to MaxRetries steps before the read is uncorrectable.
type ECC struct {
	CodewordBytes   int64
	CorrectableBits int
	RetryBits       int
	MaxRetries      int
}

// ReadClass classifies one page read.
type ReadClass int

// Read outcomes, best to worst.
const (
	ReadClean ReadClass = iota
	ReadCorrected
	ReadRetried
	ReadUncorrectable
)

// String names the class.
func (c ReadClass) String() string {
	switch c {
	case ReadClean:
		return "clean"
	case ReadCorrected:
		return "corrected"
	case ReadRetried:
		return "retried"
	case ReadUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("ReadClass(%d)", int(c))
	}
}

// ReadResult is the injector's verdict on one page read.
type ReadResult struct {
	Class ReadClass
	// Retries is the number of stepped re-senses the controller needed
	// (0 unless Class >= ReadRetried; MaxRetries when uncorrectable).
	Retries int
	// CorrectedBits is the total number of bit errors the ECC fixed.
	CorrectedBits int64
}

// Classify grades a page given the worst codeword's error count and the sum
// of errors across codewords. It is exposed for tests and for the fuzz
// harness; the Injector calls it after sampling.
func (e ECC) Classify(worst int, total int64) ReadResult {
	switch {
	case worst == 0:
		return ReadResult{Class: ReadClean}
	case worst <= e.CorrectableBits:
		return ReadResult{Class: ReadCorrected, CorrectedBits: total}
	}
	over := worst - e.CorrectableBits
	gain := e.RetryBits
	if gain <= 0 {
		gain = 1
	}
	retries := (over + gain - 1) / gain
	if retries > e.MaxRetries {
		return ReadResult{Class: ReadUncorrectable, Retries: e.MaxRetries}
	}
	return ReadResult{Class: ReadRetried, Retries: retries, CorrectedBits: total}
}

// Counts is a snapshot of everything the injector has seen.
type Counts struct {
	Reads         int64
	Clean         int64
	Corrected     int64
	Retried       int64
	Uncorrectable int64
	CorrectedBits int64
	Retries       int64

	ProgramFailures int64
	EraseFailures   int64
	GrownBadBlocks  int64
	SparesLeft      int64
	RejectedOps     int64
	ReadOnly        bool
}

// String renders the counts as the replay tools' fault summary block.
func (c Counts) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults: %d reads: %d clean, %d corrected (%d bits), %d retried (%d retries), %d uncorrectable\n",
		c.Reads, c.Clean, c.Corrected, c.CorrectedBits, c.Retried, c.Retries, c.Uncorrectable)
	fmt.Fprintf(&b, "        %d program failures, %d erase failures, %d grown-bad blocks, %d spares left, read-only %v\n",
		c.ProgramFailures, c.EraseFailures, c.GrownBadBlocks, c.SparesLeft, c.ReadOnly)
	return b.String()
}

// rber evaluates the error-rate model for one block's wear.
func (p Profile) rber(pe, endurance int64) float64 {
	if p.BaseRBER <= 0 {
		return 0
	}
	frac := 0.0
	if endurance > 0 {
		frac = float64(pe) / float64(endurance)
	}
	r := p.BaseRBER * math.Exp(p.WearGrowth*frac) * (1 + p.RetentionGrowth*p.RetentionDays)
	if r > 0.5 {
		r = 0.5
	}
	return r
}

// opFailProb evaluates the wear-scaled program/erase failure probability.
func (p Profile) opFailProb(base float64, pe, endurance int64) float64 {
	if base <= 0 {
		return 0
	}
	frac := 0.0
	if endurance > 0 {
		frac = float64(pe) / float64(endurance)
	}
	f := base * (1 + 9*frac)
	if f > 1 {
		f = 1
	}
	return f
}
