package experiment

import (
	"strings"
	"testing"

	"oocnvm/internal/nvm"
)

func TestTable2HasThirteenRows(t *testing.T) {
	rows := Table2()
	if len(rows) != 13 {
		t.Fatalf("Table 2 has %d rows, want 13", len(rows))
	}
	names := map[string]bool{}
	for _, c := range rows {
		if names[c.Name] {
			t.Errorf("duplicate config %q", c.Name)
		}
		names[c.Name] = true
	}
	for _, want := range []string{
		"ION-GPFS", "CNL-JFS", "CNL-BTRFS", "CNL-XFS", "CNL-REISERFS",
		"CNL-EXT2", "CNL-EXT3", "CNL-EXT4", "CNL-EXT4-L", "CNL-UFS",
		"CNL-BRIDGE-16", "CNL-NATIVE-8", "CNL-NATIVE-16",
	} {
		if !names[want] {
			t.Errorf("missing configuration %q", want)
		}
	}
}

func TestTable2HardwareColumns(t *testing.T) {
	// The hardware parameters of Table 2: baseline rows are bridged PCIe 2.0
	// x8 with the SDR bus; only the named rows diverge.
	for _, c := range Table2() {
		switch c.Name {
		case "CNL-BRIDGE-16":
			if !c.PCIe.Bridged || c.PCIe.Lanes != 16 || c.Bus.DDR {
				t.Errorf("%s hardware wrong: %+v %+v", c.Name, c.PCIe, c.Bus)
			}
		case "CNL-NATIVE-8":
			if c.PCIe.Bridged || c.PCIe.Lanes != 8 || !c.Bus.DDR {
				t.Errorf("%s hardware wrong: %+v %+v", c.Name, c.PCIe, c.Bus)
			}
		case "CNL-NATIVE-16":
			if c.PCIe.Bridged || c.PCIe.Lanes != 16 || !c.Bus.DDR {
				t.Errorf("%s hardware wrong: %+v %+v", c.Name, c.PCIe, c.Bus)
			}
		default:
			if !c.PCIe.Bridged || c.PCIe.Lanes != 8 || c.Bus.DDR {
				t.Errorf("%s must be bridged gen2 x8 SDR: %+v %+v", c.Name, c.PCIe, c.Bus)
			}
		}
		if c.Remote != (c.Name == "ION-GPFS") {
			t.Errorf("%s remote flag wrong", c.Name)
		}
	}
}

func TestFindConfig(t *testing.T) {
	c, err := FindConfig("CNL-UFS")
	if err != nil || c.Name != "CNL-UFS" {
		t.Fatalf("FindConfig: %v %v", c, err)
	}
	if _, err := FindConfig("NOPE"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestBuildFSKinds(t *testing.T) {
	for _, c := range Table2() {
		fsys, err := c.buildFS(1<<30, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if fsys.ReadAhead() <= 0 {
			t.Fatalf("%s: no readahead window", c.Name)
		}
	}
}

func TestBuildLinkKinds(t *testing.T) {
	ion := IONGPFS().BuildLink()
	local := CNLUFS().BuildLink()
	if ion.BytesPerSec() >= local.BytesPerSec() {
		t.Fatal("remote link not slower than local")
	}
}

func TestRenderedTables(t *testing.T) {
	opt := TestOptions()
	opt.MeasureRemaining = true
	opt.Workload.MatrixBytes = 32 << 20
	cfgs := []Config{IONGPFS(), CNLUFS()}
	cells := []nvm.CellType{nvm.TLC, nvm.PCM}
	ms, err := Matrix(cfgs, cells, opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]string{
		"bandwidth": FormatBandwidthTable("X", ms, cfgs, cells),
		"remaining": FormatRemainingTable("X", ms, cfgs, cells),
		"chanutil":  FormatChannelUtilTable(ms, cfgs, cells),
		"pkgutil":   FormatPackageUtilTable(ms, cfgs, cells),
		"breakdown": FormatBreakdownTable(nvm.TLC, ms, cfgs),
		"pal":       FormatPALTable(nvm.PCM, ms, cfgs),
	} {
		if !strings.Contains(s, "ION-GPFS") || !strings.Contains(s, "CNL-UFS") {
			t.Errorf("%s table missing config rows:\n%s", name, s)
		}
	}
	if !strings.Contains(FormatTable1(), "PCM") {
		t.Error("Table 1 render broken")
	}
	if !strings.Contains(FormatTable2(), "CNL-NATIVE-16") {
		t.Error("Table 2 render broken")
	}
	if !strings.Contains(FormatFig1(), "ioDrive") {
		t.Error("Figure 1 render broken")
	}
	fig6, err := FormatFig6(opt, 8)
	if err != nil || !strings.Contains(fig6, "posix-offset") {
		t.Errorf("Figure 6 render broken: %v", err)
	}
}

func TestSummaryFormat(t *testing.T) {
	s := Summary{
		CNLOverION: 1.08, UFSOverCNL: 0.52, HWOverUFS: 2.5,
		TotalOverION:     map[nvm.CellType]float64{nvm.TLC: 8, nvm.PCM: 16},
		MeanTotalOverION: 10.3,
	}
	out := s.Format([]nvm.CellType{nvm.TLC, nvm.PCM})
	for _, want := range []string{"+108%", "+52%", "+250%", "8.0x", "16.0x", "10.3x"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsNegativeOptions(t *testing.T) {
	cfg, err := FindConfig("CNL-EXT4")
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Options){
		"RetentionDays":          func(o *Options) { o.RetentionDays = -30 },
		"PrecyclePE":             func(o *Options) { o.PrecyclePE = -3000 },
		"DurableCheckpointPages": func(o *Options) { o.DurableCheckpointPages = -5 },
		"Fault.SpareBlocks":      func(o *Options) { o.Fault.SpareBlocks = -1 },
	} {
		opt := TestOptions()
		mutate(&opt)
		if _, err := Run(cfg, nvm.SLC, opt); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("negative %s: err = %v", name, err)
		}
	}
	// Aging and a spare budget change nothing on a drive that injects no
	// faults, so they are refused rather than silently ignored.
	for name, mutate := range map[string]func(*Options){
		"RetentionDays":     func(o *Options) { o.RetentionDays = 30 },
		"PrecyclePE":        func(o *Options) { o.PrecyclePE = 3000 },
		"Fault.SpareBlocks": func(o *Options) { o.Fault.SpareBlocks = 3 },
	} {
		opt := TestOptions()
		mutate(&opt)
		if _, err := Run(cfg, nvm.SLC, opt); err == nil || !strings.Contains(err.Error(), "Fault profile") {
			t.Errorf("%s without faults: err = %v", name, err)
		}
	}
}

func TestMeasurementRemainingClamps(t *testing.T) {
	m := Measurement{MediaCapableMBps: 10}
	m.Achieved.Bandwidth = 100e6 // 100 MB/s achieved > 10 capable (rounding)
	if m.RemainingMBps() != 0 {
		t.Fatal("remaining must clamp at zero")
	}
}
