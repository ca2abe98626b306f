package nvm

import (
	"strings"
	"testing"

	"oocnvm/internal/sim"
)

// TestTable1Latencies pins the model to the paper's Table 1.
func TestTable1Latencies(t *testing.T) {
	cases := []struct {
		cell     CellType
		pageSize int64
		read     sim.Time
		progMin  sim.Time
		progMax  sim.Time
		erase    sim.Time
	}{
		{SLC, 2048, 25 * sim.Microsecond, 250 * sim.Microsecond, 250 * sim.Microsecond, 1500 * sim.Microsecond},
		{MLC, 4096, 50 * sim.Microsecond, 250 * sim.Microsecond, 2200 * sim.Microsecond, 2500 * sim.Microsecond},
		{TLC, 8192, 150 * sim.Microsecond, 440 * sim.Microsecond, 6000 * sim.Microsecond, 3000 * sim.Microsecond},
	}
	for _, c := range cases {
		p := Params(c.cell)
		if p.PageSize != c.pageSize {
			t.Errorf("%v page size = %d, want %d", c.cell, p.PageSize, c.pageSize)
		}
		if p.ReadLatency != c.read {
			t.Errorf("%v read = %v, want %v", c.cell, p.ReadLatency, c.read)
		}
		if p.ProgramLatencyMin != c.progMin || p.ProgramLatencyMax != c.progMax {
			t.Errorf("%v program = [%v,%v], want [%v,%v]", c.cell,
				p.ProgramLatencyMin, p.ProgramLatencyMax, c.progMin, c.progMax)
		}
		if p.EraseLatency != c.erase {
			t.Errorf("%v erase = %v, want %v", c.cell, p.EraseLatency, c.erase)
		}
	}
}

// TestPCMEmulation checks the flash-compatible PCM wrapper: reads far faster
// than any NAND, writes slower than SLC program per byte, tiny pages.
func TestPCMEmulation(t *testing.T) {
	pcm := Params(PCM)
	slc := Params(SLC)
	if pcm.ReadLatency >= slc.ReadLatency/10 {
		t.Errorf("PCM read %v not drastically faster than SLC %v", pcm.ReadLatency, slc.ReadLatency)
	}
	if pcm.PageSize >= slc.PageSize {
		t.Errorf("PCM interface page %d should be smaller than SLC's %d", pcm.PageSize, slc.PageSize)
	}
	if pcm.Endurance <= 1000*slc.Endurance/2 {
		t.Errorf("PCM endurance %d should be orders of magnitude above NAND", pcm.Endurance)
	}
}

func TestBitsPerCellOrdering(t *testing.T) {
	if Params(SLC).BitsPerCell != 1 || Params(MLC).BitsPerCell != 2 || Params(TLC).BitsPerCell != 3 {
		t.Fatal("bits per cell wrong")
	}
}

// TestDensityLatencyTradeoff: the paper's §2.3 — denser NAND is slower and
// wears faster.
func TestDensityLatencyTradeoff(t *testing.T) {
	slc, mlc, tlc := Params(SLC), Params(MLC), Params(TLC)
	if !(slc.ReadLatency < mlc.ReadLatency && mlc.ReadLatency < tlc.ReadLatency) {
		t.Error("read latency must increase with density")
	}
	if !(slc.ProgramLatencyMax <= mlc.ProgramLatencyMax && mlc.ProgramLatencyMax < tlc.ProgramLatencyMax) {
		t.Error("program latency must increase with density")
	}
	if !(slc.Endurance > mlc.Endurance && mlc.Endurance > tlc.Endurance) {
		t.Error("endurance must decrease with density")
	}
}

func TestProgramLatencyVariation(t *testing.T) {
	rng := sim.NewRNG(1)
	p := Params(MLC)
	seen := make(map[sim.Time]bool)
	for i := 0; i < 200; i++ {
		lat := p.ProgramLatency(rng)
		if lat < p.ProgramLatencyMin || lat > p.ProgramLatencyMax {
			t.Fatalf("program latency %v outside [%v,%v]", lat, p.ProgramLatencyMin, p.ProgramLatencyMax)
		}
		seen[lat] = true
	}
	if len(seen) < 50 {
		t.Fatalf("MLC program latency shows no variation: %d distinct values", len(seen))
	}
}

func TestProgramLatencyFixedForSLC(t *testing.T) {
	rng := sim.NewRNG(1)
	p := Params(SLC)
	for i := 0; i < 10; i++ {
		if got := p.ProgramLatency(rng); got != 250*sim.Microsecond {
			t.Fatalf("SLC program latency = %v, want fixed 250us", got)
		}
	}
}

func TestBlockSize(t *testing.T) {
	p := Params(SLC)
	if got := p.BlockSize(); got != p.PageSize*int64(p.PagesPerBlock) {
		t.Fatalf("BlockSize = %d", got)
	}
	// Eraseblocks of the era were 64 KiB - 256 KiB (paper §2.3); ours should
	// sit in a plausible range.
	for _, c := range CellTypes {
		bs := Params(c).BlockSize()
		if bs < 64<<10 || bs > 2<<20 {
			t.Errorf("%v block size %d outside plausible range", c, bs)
		}
	}
}

func TestCellTypeStrings(t *testing.T) {
	if SLC.String() != "SLC" || MLC.String() != "MLC" || TLC.String() != "TLC" || PCM.String() != "PCM" {
		t.Fatal("cell type names wrong")
	}
	if CellType(42).String() != "CellType(42)" {
		t.Fatal("unknown cell type should render its number")
	}
}

func TestParseCell(t *testing.T) {
	for _, c := range CellTypes {
		for _, name := range []string{c.String(), strings.ToLower(c.String())} {
			if got, err := ParseCell(name); err != nil || got != c {
				t.Errorf("ParseCell(%q) = %v, %v; want %v", name, got, err, c)
			}
		}
	}
	_, err := ParseCell("QLC")
	if err == nil {
		t.Fatal("QLC accepted")
	}
	for _, c := range CellTypes {
		if !strings.Contains(err.Error(), c.String()) {
			t.Errorf("error %q does not list %v", err, c)
		}
	}
}

func TestParamsPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Params(99) did not panic")
		}
	}()
	Params(CellType(99))
}
