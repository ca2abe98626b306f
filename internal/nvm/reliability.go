package nvm

import "oocnvm/internal/fault"

// This file binds the dependency-light fault package to the nvm types:
// per-medium ECC budgets and the Config derivation from a geometry/cell
// pair. The controller-side orchestration (retry charging, bad-block
// retirement, read-only degradation) lives in the ssd package.

// ECCFor returns the controller's error-correction budget for a medium.
// Budgets scale with density the way shipping controllers do: SLC gets a
// light BCH-class code, MLC/TLC get LDPC-class budgets plus deeper
// read-retry ladders, and PCM — which needs almost no ECC — gets a thin
// code over half-size codewords.
func ECCFor(t CellType) fault.ECC {
	switch t {
	case SLC:
		return fault.ECC{CodewordBytes: 1024, CorrectableBits: 8, RetryBits: 4, MaxRetries: 3}
	case MLC:
		return fault.ECC{CodewordBytes: 1024, CorrectableBits: 40, RetryBits: 8, MaxRetries: 4}
	case TLC:
		return fault.ECC{CodewordBytes: 1024, CorrectableBits: 60, RetryBits: 8, MaxRetries: 5}
	case PCM:
		return fault.ECC{CodewordBytes: 512, CorrectableBits: 2, RetryBits: 1, MaxRetries: 1}
	default:
		return fault.ECC{CodewordBytes: 1024, CorrectableBits: 8, RetryBits: 4, MaxRetries: 3}
	}
}

// FaultConfig derives a fault.Config from the device organization: the
// page-striping numbers the injector needs to map physical page numbers to
// eraseblocks, the medium's ECC budget and rated endurance, and the seed.
// Callers may still adjust PrecyclePE and RetentionDays before building the
// injector.
func FaultConfig(geo Geometry, cell CellParams, prof fault.Profile, seed uint64) fault.Config {
	rowSize := int64(geo.Channels * cell.Planes * geo.DiesPerChannel())
	return fault.Config{
		Profile:       prof,
		ECC:           ECCFor(cell.Type),
		PageSize:      cell.PageSize,
		PagesPerBlock: int64(cell.PagesPerBlock),
		RowSize:       rowSize,
		TotalBlocks:   rowSize * int64(geo.BlocksPerPlane),
		Endurance:     cell.Endurance,
		Seed:          seed,
	}
}

// Retirement is a translator's answer to a grown-bad block report. Ops carry
// the relocation traffic (reads of still-valid pages plus their re-programs
// elsewhere); Retired reports whether a block was actually newly retired
// (false when the block was already bad); OK=false means the translator has
// nowhere left to relocate and the device must degrade to read-only.
type Retirement struct {
	Ops     []PageOp
	Retired bool
	OK      bool
}
