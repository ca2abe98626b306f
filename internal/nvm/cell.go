// Package nvm models non-volatile memory devices at the level the paper's
// NANDFlashSim framework does: individual dies with planes, packages sharing
// channel buses, per-operation cell timings (Table 1 of the paper), and the
// six-state execution accounting plus PAL1-PAL4 parallelism classification
// reported in the paper's Figures 9 and 10.
package nvm

import (
	"fmt"
	"strings"

	"oocnvm/internal/sim"
)

// CellType identifies the NVM storage medium of a die.
type CellType int

// The four media the paper evaluates (§2.3).
const (
	SLC CellType = iota // single-level cell NAND, 1 bit/cell
	MLC                 // multi-level cell NAND, 2 bits/cell
	TLC                 // triple-level cell NAND, 3 bits/cell
	PCM                 // phase-change memory behind a NOR-style page interface
)

// CellTypes lists all media in presentation order (as in the paper's charts).
var CellTypes = []CellType{TLC, MLC, SLC, PCM}

// String returns the conventional abbreviation for the cell type.
func (c CellType) String() string {
	switch c {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	case TLC:
		return "TLC"
	case PCM:
		return "PCM"
	default:
		return fmt.Sprintf("CellType(%d)", int(c))
	}
}

// ParseCell returns the cell type whose name (as String gives it) matches
// name case-insensitively; the error lists the valid names.
func ParseCell(name string) (CellType, error) {
	names := make([]string, len(CellTypes))
	for i, c := range CellTypes {
		if strings.EqualFold(name, c.String()) {
			return c, nil
		}
		names[i] = c.String()
	}
	return 0, fmt.Errorf("nvm: unknown cell type %q (have %s)", name, strings.Join(names, ", "))
}

// CellParams carries the per-medium timing and organization parameters.
// Values for the NAND types follow Table 1 of the paper (Micron SLC/MLC/TLC
// datasheets); program latency is a range because MLC and TLC page programs
// vary with the page's position in the cell (LSB vs MSB pages).
type CellParams struct {
	Type     CellType
	PageSize int64 // interface page size in bytes

	ReadLatency       sim.Time // tR: cell array -> page register
	ProgramLatencyMin sim.Time // tPROG lower bound
	ProgramLatencyMax sim.Time // tPROG upper bound
	EraseLatency      sim.Time // tBERS for one block

	PagesPerBlock int   // pages per eraseblock
	Planes        int   // planes per die usable for multi-plane ops
	BitsPerCell   int   // storage density
	Endurance     int64 // program/erase cycles before wear-out
}

// Params returns the canonical parameters for a cell type.
//
// PCM is exposed through the flash-compatible page interface the paper
// describes in §2.3 ("industry applies NOR flash memory interface logic to
// PCM by emulating block-level erase operations and page-based I/O"): the
// 64 B GSTs are aggregated into a 1 KiB interface page whose latencies are
// the Table 1 GST latencies scaled by the emulation layer's internal bank
// parallelism (16 GST banks sensed concurrently per page).
func Params(t CellType) CellParams {
	switch t {
	case SLC:
		return CellParams{
			Type: SLC, PageSize: 2 * 1024,
			ReadLatency:       25 * sim.Microsecond,
			ProgramLatencyMin: 250 * sim.Microsecond,
			ProgramLatencyMax: 250 * sim.Microsecond,
			EraseLatency:      1500 * sim.Microsecond,
			PagesPerBlock:     64, Planes: 2, BitsPerCell: 1,
			Endurance: 100_000,
		}
	case MLC:
		return CellParams{
			Type: MLC, PageSize: 4 * 1024,
			ReadLatency:       50 * sim.Microsecond,
			ProgramLatencyMin: 250 * sim.Microsecond,
			ProgramLatencyMax: 2200 * sim.Microsecond,
			EraseLatency:      2500 * sim.Microsecond,
			PagesPerBlock:     128, Planes: 2, BitsPerCell: 2,
			Endurance: 3_000,
		}
	case TLC:
		// TLC parts of the era did not support multi-plane operation,
		// which is why TLC never reaches PAL4 in the paper's Figure 10b.
		return CellParams{
			Type: TLC, PageSize: 8 * 1024,
			ReadLatency:       150 * sim.Microsecond,
			ProgramLatencyMin: 440 * sim.Microsecond,
			ProgramLatencyMax: 6000 * sim.Microsecond,
			EraseLatency:      3000 * sim.Microsecond,
			PagesPerBlock:     192, Planes: 1, BitsPerCell: 3,
			Endurance: 500,
		}
	case PCM:
		// 1 KiB emulated page = 16 GSTs of 64 B, sensed in parallel banks:
		// read 0.115-0.135 us/GST -> 0.25 us/page including bank turnaround;
		// write 35 us/GST with 16-bank parallelism -> 40 us/page; the
		// emulated block erase is a no-op RESET sweep at 35 us. The bank
		// groups are exposed as two plane-like units, which together with
		// the small page size is why PCM requests spread across all dies
		// and sit almost entirely at PAL4 (Figure 10d).
		return CellParams{
			Type: PCM, PageSize: 1024,
			ReadLatency:       250 * sim.Nanosecond,
			ProgramLatencyMin: 40 * sim.Microsecond,
			ProgramLatencyMax: 40 * sim.Microsecond,
			EraseLatency:      35 * sim.Microsecond,
			PagesPerBlock:     256, Planes: 2, BitsPerCell: 1,
			Endurance: 100_000_000,
		}
	default:
		panic(fmt.Sprintf("nvm: unknown cell type %d", int(t)))
	}
}

// ProgramLatency returns a deterministic draw from the program-latency range
// using the supplied generator (NANDFlashSim's "intrinsic latency variation").
func (p CellParams) ProgramLatency(rng *sim.RNG) sim.Time {
	if p.ProgramLatencyMax <= p.ProgramLatencyMin {
		return p.ProgramLatencyMin
	}
	span := int64(p.ProgramLatencyMax - p.ProgramLatencyMin)
	return p.ProgramLatencyMin + sim.Time(rng.Int63n(span+1))
}

// BlockSize returns the eraseblock size in bytes.
func (p CellParams) BlockSize() int64 {
	return p.PageSize * int64(p.PagesPerBlock)
}
