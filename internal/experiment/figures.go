package experiment

import (
	"fmt"
	"strings"

	"oocnvm/internal/nvm"
	"oocnvm/internal/trace"
	"oocnvm/internal/trend"
)

// FormatBandwidthTable renders Figure 7a/8a-style tables: configurations as
// rows, NVM types as columns, achieved MB/s as values.
func FormatBandwidthTable(title string, ms []Measurement, configs []Config, cells []nvm.CellType) string {
	return formatTable(title+" (MB/s achieved)", ms, configs, cells, func(m Measurement) float64 {
		return m.AchievedMBps()
	})
}

// FormatRemainingTable renders Figure 7b/8b: bandwidth the media had left
// over under the same pattern.
func FormatRemainingTable(title string, ms []Measurement, configs []Config, cells []nvm.CellType) string {
	return formatTable(title+" (MB/s remaining)", ms, configs, cells, func(m Measurement) float64 {
		return m.RemainingMBps()
	})
}

// FormatChannelUtilTable renders Figure 9a.
func FormatChannelUtilTable(ms []Measurement, configs []Config, cells []nvm.CellType) string {
	return formatTable("Figure 9a: channel-level utilization (%)", ms, configs, cells, func(m Measurement) float64 {
		return 100 * m.Achieved.Stats.ChannelUtilization
	})
}

// FormatPackageUtilTable renders Figure 9b.
func FormatPackageUtilTable(ms []Measurement, configs []Config, cells []nvm.CellType) string {
	return formatTable("Figure 9b: package-level utilization (%)", ms, configs, cells, func(m Measurement) float64 {
		return 100 * m.Achieved.Stats.PackageUtilization
	})
}

func formatTable(title string, ms []Measurement, configs []Config, cells []nvm.CellType, val func(Measurement) float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s", "config")
	for _, c := range cells {
		fmt.Fprintf(&b, "%10s", c)
	}
	b.WriteByte('\n')
	for _, cfg := range configs {
		fmt.Fprintf(&b, "%-16s", cfg.Name)
		for _, c := range cells {
			m, err := Lookup(ms, cfg.Name, c)
			if err != nil {
				fmt.Fprintf(&b, "%10s", "-")
				continue
			}
			fmt.Fprintf(&b, "%10.1f", val(m))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatBreakdownTable renders Figure 10a/10c: per-configuration execution
// time shares over the six device states, for one NVM type.
func FormatBreakdownTable(cell nvm.CellType, ms []Measurement, configs []Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 (%s): execution breakdown (%% of device state time)\n", cell)
	fmt.Fprintf(&b, "%-16s", "config")
	short := []string{"DMA", "FlashBus", "ChanBus", "CellCont", "ChanCont", "CellAct"}
	for _, s := range short {
		fmt.Fprintf(&b, "%10s", s)
	}
	b.WriteByte('\n')
	for _, cfg := range configs {
		m, err := Lookup(ms, cfg.Name, cell)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "%-16s", cfg.Name)
		for _, p := range m.Achieved.Stats.Breakdown.Percentages() {
			fmt.Fprintf(&b, "%10.1f", 100*p)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatPALTable renders Figure 10b/10d: the parallelism decomposition for
// one NVM type.
func FormatPALTable(cell nvm.CellType, ms []Measurement, configs []Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 (%s): parallelism decomposition (%% of requests)\n", cell)
	fmt.Fprintf(&b, "%-16s%10s%10s%10s%10s\n", "config", "PAL1", "PAL2", "PAL3", "PAL4")
	for _, cfg := range configs {
		m, err := Lookup(ms, cfg.Name, cell)
		if err != nil {
			continue
		}
		fr := m.Achieved.Stats.PAL.Fractions()
		fmt.Fprintf(&b, "%-16s%10.1f%10.1f%10.1f%10.1f\n", cfg.Name,
			100*fr[0], 100*fr[1], 100*fr[2], 100*fr[3])
	}
	return b.String()
}

// FormatTable1 renders the paper's Table 1 from the cell parameter models.
func FormatTable1() string {
	var b strings.Builder
	b.WriteString("Table 1: NVM latency model\n")
	fmt.Fprintf(&b, "%-12s%10s%10s%10s%10s\n", "", "SLC", "MLC", "TLC", "PCM")
	cells := []nvm.CellType{nvm.SLC, nvm.MLC, nvm.TLC, nvm.PCM}
	row := func(label string, f func(nvm.CellParams) string) {
		fmt.Fprintf(&b, "%-12s", label)
		for _, c := range cells {
			fmt.Fprintf(&b, "%10s", f(nvm.Params(c)))
		}
		b.WriteByte('\n')
	}
	row("PageSize", func(p nvm.CellParams) string { return fmt.Sprintf("%dB", p.PageSize) })
	row("Read(us)", func(p nvm.CellParams) string { return fmt.Sprintf("%.2f", p.ReadLatency.Micros()) })
	row("Write(us)", func(p nvm.CellParams) string {
		if p.ProgramLatencyMin == p.ProgramLatencyMax {
			return fmt.Sprintf("%.0f", p.ProgramLatencyMin.Micros())
		}
		return fmt.Sprintf("%.0f-%.0f", p.ProgramLatencyMin.Micros(), p.ProgramLatencyMax.Micros())
	})
	row("Erase(us)", func(p nvm.CellParams) string { return fmt.Sprintf("%.0f", p.EraseLatency.Micros()) })
	row("Planes", func(p nvm.CellParams) string { return fmt.Sprintf("%d", p.Planes) })
	return b.String()
}

// FormatTable2 renders the configuration list.
func FormatTable2() string {
	var b strings.Builder
	b.WriteString("Table 2: evaluated configurations\n")
	fmt.Fprintf(&b, "%-16s%-12s%-22s%-18s%8s\n", "config", "controller", "pcie/bus", "interface", "lanes")
	for _, c := range Table2() {
		ctrl := "Native"
		if c.PCIe.Bridged {
			ctrl = "Bridged"
		}
		busKind := "SDR"
		if c.Bus.DDR {
			busKind = "DDR"
		}
		fmt.Fprintf(&b, "%-16s%-12s%-22s%-18s%8d\n",
			c.Name, ctrl, c.PCIe.Gen.Name+"/"+busKind,
			fmt.Sprintf("%s %.0fMHz", busKind, c.Bus.ClockMHz), c.PCIe.Lanes)
	}
	return b.String()
}

// Fig6 returns the two access-pattern sequences of Figure 6: the POSIX-level
// offsets the application issues (bottom panel) and the sub-GPFS
// device-level offsets after striping (top panel), truncated to n entries.
func Fig6(opt Options, n int) (posix, gpfs []int64, err error) {
	posixOps, err := opt.Workload.PosixTrace()
	if err != nil {
		return nil, nil, err
	}
	cfg := IONGPFS()
	capacity := opt.Geometry.Capacity(nvm.Params(nvm.SLC))
	fsys, err := cfg.buildFS(capacity, opt.Seed)
	if err != nil {
		return nil, nil, err
	}
	blockOps := fsys.Transform(posixOps)
	for i := 0; i < len(posixOps) && i < n; i++ {
		posix = append(posix, posixOps[i].Offset)
	}
	for i := 0; i < len(blockOps) && i < n; i++ {
		gpfs = append(gpfs, blockOps[i].Offset)
	}
	return posix, gpfs, nil
}

// FormatFig6 renders the access-pattern comparison as two columns.
func FormatFig6(opt Options, n int) (string, error) {
	posix, gpfs, err := Fig6(opt, n)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 6: access sequence vs address (POSIX at CN, sub-GPFS at ION)\n")
	fmt.Fprintf(&b, "%-8s%16s%16s\n", "seq", "posix-offset", "gpfs-offset")
	for i := 0; i < n; i++ {
		p, g := "-", "-"
		if i < len(posix) {
			p = fmt.Sprintf("%d", posix[i])
		}
		if i < len(gpfs) {
			g = fmt.Sprintf("%d", gpfs[i])
		}
		fmt.Fprintf(&b, "%-8d%16s%16s\n", i, p, g)
	}
	return b.String(), nil
}

// FormatFig1 renders the bandwidth-trend data and fits of Figure 1.
func FormatFig1() string {
	var b strings.Builder
	b.WriteString("Figure 1: bandwidth per channel (GB/s) over time\n")
	pts := trend.Points()
	for _, cat := range []trend.Category{trend.InfiniBand, trend.FibreChannel, trend.FlashSSD, trend.OtherNVM} {
		fmt.Fprintf(&b, "%s:\n", cat)
		for _, p := range trend.SortedByYear(pts, cat) {
			fmt.Fprintf(&b, "  %6.0f  %8.3f  %s\n", p.Year, p.GBps, p.Label)
		}
		if fit, err := trend.FitCategory(pts, cat); err == nil {
			fmt.Fprintf(&b, "  fit: doubling every %.1f years\n", fit.DoublingYrs)
		}
	}
	ib, err1 := trend.FitCategory(pts, trend.InfiniBand)
	fl, err2 := trend.FitCategory(pts, trend.FlashSSD)
	if err1 == nil && err2 == nil {
		if y, err := trend.Crossover(ib, fl); err == nil {
			fmt.Fprintf(&b, "flash-SSD bandwidth overtakes point-to-point network around %.0f\n", y)
		}
	}
	return b.String()
}

// Fig6Pattern gives programmatic access to the trace characterizations used
// in tests: sequentiality before and after GPFS.
func Fig6Pattern(opt Options) (posixSeq, gpfsSeq float64, err error) {
	posixOps, err := opt.Workload.PosixTrace()
	if err != nil {
		return 0, 0, err
	}
	var asBlocks []trace.BlockOp
	for _, op := range posixOps {
		asBlocks = append(asBlocks, trace.BlockOp{Kind: op.Kind, Offset: op.Offset, Size: op.Size})
	}
	cfg := IONGPFS()
	capacity := opt.Geometry.Capacity(nvm.Params(nvm.SLC))
	fsys, err := cfg.buildFS(capacity, opt.Seed)
	if err != nil {
		return 0, 0, err
	}
	blockOps := fsys.Transform(posixOps)
	return trace.Characterize(asBlocks).SequentialPct, trace.Characterize(blockOps).SequentialPct, nil
}
