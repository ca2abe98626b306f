package oocnvm_test

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (§4) and the ablations called out in DESIGN.md §5. Figures are
// reported through b.ReportMetric as MB/s (or %, x) per configuration, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced results alongside the harness cost. Whole-figure
// benchmarks take seconds per run; the default -benchtime therefore executes
// them once.

import (
	"fmt"
	"testing"

	"oocnvm/internal/cluster"
	"oocnvm/internal/dooc"
	"oocnvm/internal/energy"
	"oocnvm/internal/experiment"
	"oocnvm/internal/fault"
	"oocnvm/internal/fs"
	"oocnvm/internal/interconnect"
	"oocnvm/internal/linalg"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/ooc"
	"oocnvm/internal/sim"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
	"oocnvm/internal/trend"
)

// benchOptions is the evaluation scale used by the figure benchmarks:
// large enough for steady state, small enough to run in seconds.
func benchOptions() experiment.Options {
	opt := experiment.DefaultOptions()
	opt.Workload = ooc.Workload{MatrixBytes: 96 << 20, PanelBytes: 8 << 20, Applications: 2}
	return opt
}

func reportMatrix(b *testing.B, ms []experiment.Measurement, metric func(experiment.Measurement) float64, unit string) {
	b.Helper()
	for _, m := range ms {
		b.ReportMetric(metric(m), fmt.Sprintf("%s/%s_%s", unit, m.Config.Name, m.Cell))
	}
}

// --- Table 1 / Figure 1 ------------------------------------------------------

// BenchmarkTable1CellLatencies measures one page read per NVM type through
// the device model, pinning the Table 1 latency ladder.
func BenchmarkTable1CellLatencies(b *testing.B) {
	for _, cell := range nvm.CellTypes {
		b.Run(cell.String(), func(b *testing.B) {
			cp := nvm.Params(cell)
			dev, err := nvm.NewDevice(nvm.PaperGeometry(), cp, nvm.ONFi3SDR(), interconnect.Infinite{}, 1)
			if err != nil {
				b.Fatal(err)
			}
			var at int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dev.Submit(0, []nvm.PageOp{{Op: nvm.OpRead, Loc: dev.Geo.MapLogical(at, cp.Planes)}})
				at++
			}
			b.ReportMetric(cp.ReadLatency.Micros(), "tR_us")
		})
	}
}

// BenchmarkFig1TrendFit regenerates the Figure 1 growth fits and crossover.
func BenchmarkFig1TrendFit(b *testing.B) {
	var year float64
	for i := 0; i < b.N; i++ {
		pts := trend.Points()
		ib, err := trend.FitCategory(pts, trend.InfiniBand)
		if err != nil {
			b.Fatal(err)
		}
		fl, err := trend.FitCategory(pts, trend.FlashSSD)
		if err != nil {
			b.Fatal(err)
		}
		year, err = trend.Crossover(ib, fl)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(year, "crossover_year")
}

// --- Figure 6 ---------------------------------------------------------------

// BenchmarkFig6TraceMutation regenerates the POSIX vs sub-GPFS access
// patterns and reports their sequentiality.
func BenchmarkFig6TraceMutation(b *testing.B) {
	var posixSeq, gpfsSeq float64
	for i := 0; i < b.N; i++ {
		var err error
		posixSeq, gpfsSeq, err = experiment.Fig6Pattern(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*posixSeq, "%seq_posix")
	b.ReportMetric(100*gpfsSeq, "%seq_gpfs")
}

// --- Figures 7-10 -------------------------------------------------------------

// BenchmarkFig7aBandwidth regenerates the achieved-bandwidth comparison of
// ION-GPFS, the eight local file systems, and UFS over all four NVM types.
func BenchmarkFig7aBandwidth(b *testing.B) {
	var ms []experiment.Measurement
	opt := benchOptions()
	opt.MeasureRemaining = false
	for i := 0; i < b.N; i++ {
		var err error
		ms, err = experiment.Matrix(experiment.FileSystemConfigs(), nvm.CellTypes, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMatrix(b, ms, experiment.Measurement.AchievedMBps, "MBps")
}

// BenchmarkFig7bRemaining regenerates the bandwidth-remaining chart.
func BenchmarkFig7bRemaining(b *testing.B) {
	var ms []experiment.Measurement
	for i := 0; i < b.N; i++ {
		var err error
		ms, err = experiment.Matrix(experiment.FileSystemConfigs(), nvm.CellTypes, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMatrix(b, ms, experiment.Measurement.RemainingMBps, "restMBps")
}

// BenchmarkFig8aDeviceLadder regenerates the hardware exploration.
func BenchmarkFig8aDeviceLadder(b *testing.B) {
	var ms []experiment.Measurement
	opt := benchOptions()
	opt.MeasureRemaining = false
	for i := 0; i < b.N; i++ {
		var err error
		ms, err = experiment.Matrix(experiment.DeviceConfigs(), nvm.CellTypes, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMatrix(b, ms, experiment.Measurement.AchievedMBps, "MBps")
}

// BenchmarkFig8bRemaining regenerates the ladder's left-over capability.
func BenchmarkFig8bRemaining(b *testing.B) {
	var ms []experiment.Measurement
	for i := 0; i < b.N; i++ {
		var err error
		ms, err = experiment.Matrix(experiment.DeviceConfigs(), nvm.CellTypes, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMatrix(b, ms, experiment.Measurement.RemainingMBps, "restMBps")
}

// BenchmarkFig9aChannelUtil regenerates channel-level utilization.
func BenchmarkFig9aChannelUtil(b *testing.B) {
	benchUtil(b, func(m experiment.Measurement) float64 {
		return 100 * m.Achieved.Stats.ChannelUtilization
	}, "%chan")
}

// BenchmarkFig9bPackageUtil regenerates package-level utilization.
func BenchmarkFig9bPackageUtil(b *testing.B) {
	benchUtil(b, func(m experiment.Measurement) float64 {
		return 100 * m.Achieved.Stats.PackageUtilization
	}, "%pkg")
}

func benchUtil(b *testing.B, metric func(experiment.Measurement) float64, unit string) {
	b.Helper()
	var ms []experiment.Measurement
	opt := benchOptions()
	opt.MeasureRemaining = false
	for i := 0; i < b.N; i++ {
		var err error
		ms, err = experiment.Matrix(experiment.Table2(), nvm.CellTypes, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMatrix(b, ms, metric, unit)
}

// BenchmarkFig10Breakdown regenerates the execution-time decomposition for
// the two media the paper charts (10a: TLC, 10c: PCM), reporting the two
// headline states per configuration.
func BenchmarkFig10Breakdown(b *testing.B) {
	for _, cell := range []nvm.CellType{nvm.TLC, nvm.PCM} {
		b.Run(cell.String(), func(b *testing.B) {
			var ms []experiment.Measurement
			opt := benchOptions()
			opt.MeasureRemaining = false
			for i := 0; i < b.N; i++ {
				var err error
				ms, err = experiment.Matrix(experiment.Table2(), []nvm.CellType{cell}, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, m := range ms {
				p := m.Achieved.Stats.Breakdown.Percentages()
				b.ReportMetric(100*p[0], "%dma/"+m.Config.Name)
				b.ReportMetric(100*(p[3]+p[5]), "%cell/"+m.Config.Name)
			}
		})
	}
}

// BenchmarkFig10Parallelism regenerates the PAL decomposition (10b: TLC,
// 10d: PCM), reporting the fully parallel share per configuration.
func BenchmarkFig10Parallelism(b *testing.B) {
	for _, cell := range []nvm.CellType{nvm.TLC, nvm.PCM} {
		b.Run(cell.String(), func(b *testing.B) {
			var ms []experiment.Measurement
			opt := benchOptions()
			opt.MeasureRemaining = false
			for i := 0; i < b.N; i++ {
				var err error
				ms, err = experiment.Matrix(experiment.Table2(), []nvm.CellType{cell}, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, m := range ms {
				fr := m.Achieved.Stats.PAL.Fractions()
				b.ReportMetric(100*(fr[1]+fr[3]), "%interleaved/"+m.Config.Name)
				b.ReportMetric(100*fr[3], "%pal4/"+m.Config.Name)
			}
		})
	}
}

// BenchmarkSummaryHeadlines regenerates the §7 headline ratios.
func BenchmarkSummaryHeadlines(b *testing.B) {
	var s experiment.Summary
	opt := benchOptions()
	opt.MeasureRemaining = false
	for i := 0; i < b.N; i++ {
		ms, err := experiment.Matrix(experiment.Table2(), nvm.CellTypes, opt)
		if err != nil {
			b.Fatal(err)
		}
		s, err = experiment.Summarize(ms, nvm.CellTypes)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*s.CNLOverION, "%cnl_over_ion")
	b.ReportMetric(100*s.UFSOverCNL, "%ufs_over_cnl")
	b.ReportMetric(100*s.HWOverUFS, "%hw_over_ufs")
	b.ReportMetric(s.MeanTotalOverION, "x_total")
	b.ReportMetric(s.TotalOverION[nvm.TLC], "x_tlc")
	b.ReportMetric(s.TotalOverION[nvm.PCM], "x_pcm")
}

// --- Ablations (DESIGN.md §5) -------------------------------------------------

func runOne(b *testing.B, cfg experiment.Config, cell nvm.CellType, opt experiment.Options) experiment.Measurement {
	b.Helper()
	m, err := experiment.Run(cfg, cell, opt)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAblationMultiplane quantifies multi-plane merging: the same SLC
// die population with and without plane pairing, on the DDR bus where the
// media (not the bus) is the limit, measured end to end through the SSD.
func BenchmarkAblationMultiplane(b *testing.B) {
	run := func(planes int) float64 {
		cp := nvm.Params(nvm.SLC)
		cp.Planes = planes
		geo := nvm.PaperGeometry()
		drive, err := ssd.New(ssd.Config{
			Geometry: geo, Cell: cp, Bus: nvm.FutureDDR(),
			Link:       interconnect.Infinite{},
			Translator: ssd.NewDirect(geo, cp),
			Seed:       1,
		})
		if err != nil {
			b.Fatal(err)
		}
		var res ssd.Result
		for off := int64(0); off < 96<<20; off += 8 << 20 {
			drive.Submit(traceRead(off, 8<<20))
		}
		res = drive.Finish()
		return res.MBps()
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(2)
		without = run(1)
	}
	b.ReportMetric(with, "MBps_planes2")
	b.ReportMetric(without, "MBps_planes1")
}

// BenchmarkAblationSyncMetadata isolates the §3.2 "drawback 2": the same
// ext2 profile with and without synchronous metadata barriers.
func BenchmarkAblationSyncMetadata(b *testing.B) {
	opt := benchOptions()
	opt.MeasureRemaining = false
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = runOne(b, experiment.CNL(fs.Ext2()), nvm.TLC, opt).AchievedMBps()
		clean := fs.Ext2()
		clean.Name = "EXT2-NOMETA"
		clean.MetaBytes = 0
		without = runOne(b, experiment.CNL(clean), nvm.TLC, opt).AchievedMBps()
	}
	b.ReportMetric(with, "MBps_withMeta")
	b.ReportMetric(without, "MBps_noMeta")
}

// BenchmarkAblationGPFSStripeUnit sweeps the stripe unit: "larger stripes
// combat this randomizing trend, but only to limited extents" (§4.2).
func BenchmarkAblationGPFSStripeUnit(b *testing.B) {
	opt := benchOptions()
	opt.MeasureRemaining = false
	units := []int64{256 << 10, 1 << 20, 4 << 20}
	results := make([]float64, len(units))
	for i := 0; i < b.N; i++ {
		for j, u := range units {
			cfg := experiment.IONGPFS()
			cfg.GPFS.StripeUnit = u
			results[j] = runOne(b, cfg, nvm.SLC, opt).AchievedMBps()
		}
	}
	for j, u := range units {
		b.ReportMetric(results[j], fmt.Sprintf("MBps_stripe%dKiB", u>>10))
	}
}

// BenchmarkAblationQueueDepth sweeps the host queue depth on the UFS stack.
func BenchmarkAblationQueueDepth(b *testing.B) {
	depths := []int{1, 4, 32}
	results := make([]float64, len(depths))
	for i := 0; i < b.N; i++ {
		for j, qd := range depths {
			opt := benchOptions()
			opt.MeasureRemaining = false
			opt.QueueDepth = qd
			results[j] = runOne(b, experiment.CNLUFS(), nvm.TLC, opt).AchievedMBps()
		}
	}
	for j, qd := range depths {
		b.ReportMetric(results[j], fmt.Sprintf("MBps_qd%d", qd))
	}
}

// BenchmarkAblationRequestCap sweeps the coalescing limit at a fixed
// readahead window — why preserving request size matters (the UFS argument).
func BenchmarkAblationRequestCap(b *testing.B) {
	caps := []int64{64 << 10, 512 << 10, 8 << 20}
	results := make([]float64, len(caps))
	opt := benchOptions()
	opt.MeasureRemaining = false
	for i := 0; i < b.N; i++ {
		for j, c := range caps {
			p := fs.Profile{Name: "CAP", BlockSize: 4096, MaxRequest: c, ReadAheadBytes: 1 << 20}
			results[j] = runOne(b, experiment.CNL(p), nvm.TLC, opt).AchievedMBps()
		}
	}
	for j, c := range caps {
		b.ReportMetric(results[j], fmt.Sprintf("MBps_cap%dKiB", c>>10))
	}
}

// BenchmarkAblationReadahead sweeps the in-flight window — the ext4-L knob.
func BenchmarkAblationReadahead(b *testing.B) {
	windows := []int64{256 << 10, 1 << 20, 8 << 20}
	results := make([]float64, len(windows))
	opt := benchOptions()
	opt.MeasureRemaining = false
	for i := 0; i < b.N; i++ {
		for j, w := range windows {
			p := fs.Ext4()
			p.Name = "RA"
			p.ReadAheadBytes = w
			results[j] = runOne(b, experiment.CNL(p), nvm.TLC, opt).AchievedMBps()
		}
	}
	for j, w := range windows {
		b.ReportMetric(results[j], fmt.Sprintf("MBps_ra%dKiB", w>>10))
	}
}

// BenchmarkAblationPrefetch measures the DOoC pool's prefetching: cold
// demand misses versus a prefetched wave.
func BenchmarkAblationPrefetch(b *testing.B) {
	mk := func() (*dooc.DataPool, *int64) {
		var loads int64
		p, err := dooc.NewDataPool(1<<20, func(string) ([]byte, error) {
			loads++
			return make([]byte, 4096), nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return p, &loads
	}
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("panel%d", i)
	}
	var coldHits, warmHits int64
	for i := 0; i < b.N; i++ {
		cold, _ := mk()
		for _, n := range names {
			cold.Get(n)
		}
		h, _, _ := cold.Stats()
		coldHits = h

		warm, _ := mk()
		warm.Prefetch(names...)()
		for _, n := range names {
			warm.Get(n)
		}
		h2, _, _ := warm.Stats()
		warmHits = h2
	}
	b.ReportMetric(float64(coldHits), "hits_cold")
	b.ReportMetric(float64(warmHits), "hits_prefetched")
}

// --- Engine microbenchmarks ----------------------------------------------------

// BenchmarkSimulatorPageThroughput measures the simulator's own speed: how
// many simulated page operations the engine schedules per wall second.
func BenchmarkSimulatorPageThroughput(b *testing.B) {
	geo := nvm.PaperGeometry()
	cp := nvm.Params(nvm.SLC)
	drive, err := ssd.New(ssd.Config{
		Geometry: geo, Cell: cp, Bus: nvm.ONFi3SDR(),
		Link:       interconnect.Infinite{},
		Translator: ssd.NewDirect(geo, cp),
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	const req = 1 << 20
	b.SetBytes(req)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive.Submit(traceRead(int64(i)*req, req))
	}
}

// BenchmarkDurableWriteGC measures the simulator's write path: one
// CNL-EXT4/TLC cell with the options of bench/oocperf's write-gc-durable
// workload. Eight applications write a 68%-full six-superblock drive, so
// the FTL runs GC relocation, its journal and a checkpoint every 1,024
// host pages, and every read of the worn cells needs ECC correction.
func BenchmarkDurableWriteGC(b *testing.B) {
	cfg, err := experiment.FindConfig("CNL-EXT4")
	if err != nil {
		b.Fatal(err)
	}
	opt := experiment.DefaultOptions()
	opt.MeasureRemaining = false
	opt.Workload.Applications = 8
	opt.Workload.PsiBytes = 256 << 20
	opt.Geometry.BlocksPerPlane = 6
	opt.DurableCheckpointPages = 1024
	if opt.Fault, err = fault.ForName("worn"); err != nil {
		b.Fatal(err)
	}
	opt.Fault.ProgramFailProb, opt.Fault.EraseFailProb = 0, 0
	var m experiment.Measurement
	for i := 0; i < b.N; i++ {
		m = runOne(b, cfg, nvm.TLC, opt)
	}
	reportMatrix(b, []experiment.Measurement{m}, experiment.Measurement.AchievedMBps, "MBps")
}

func traceRead(off, size int64) trace.BlockOp {
	return trace.BlockOp{Kind: trace.Read, Offset: off, Size: size}
}

// BenchmarkTelemetrySampling measures the cost of the report sampler on the
// replay hot path. The "off" case is the default nil-sampler configuration and
// must track BenchmarkSimulatorPageThroughput (a nil check per Submit is the
// whole overhead); "on" pays for the periodic source sweeps.
func BenchmarkTelemetrySampling(b *testing.B) {
	geo := nvm.PaperGeometry()
	cp := nvm.Params(nvm.SLC)
	mk := func(samp *timeseries.Sampler) *ssd.SSD {
		drive, err := ssd.New(ssd.Config{
			Geometry: geo, Cell: cp, Bus: nvm.ONFi3SDR(),
			Link:       interconnect.Infinite{},
			Translator: ssd.NewDirect(geo, cp),
			Seed:       1,
			Sampler:    samp,
		})
		if err != nil {
			b.Fatal(err)
		}
		return drive
	}
	const req = 1 << 20
	for _, bc := range []struct {
		name string
		samp func() *timeseries.Sampler
	}{
		{"off", func() *timeseries.Sampler { return nil }},
		{"on", func() *timeseries.Sampler {
			return timeseries.NewSampler(100*sim.Microsecond, 256)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			drive := mk(bc.samp())
			b.SetBytes(req)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drive.Submit(traceRead(int64(i)*req, req))
			}
		})
	}
}

// BenchmarkSpMM measures the numerical kernel of the workload.
func BenchmarkSpMM(b *testing.B) {
	h, err := ooc.Hamiltonian(ooc.DefaultHamiltonian(5000))
	if err != nil {
		b.Fatal(err)
	}
	x := linalg.NewMatrix(5000, 16)
	for i := range x.Data {
		x.Data[i] = float64(i%17) - 8
	}
	b.SetBytes(h.NNZ() * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Mul(x)
	}
}

// BenchmarkLOBPCGSolve measures a full small-scale eigensolve. Beyond the
// time-per-op, it reports how hard the solver worked: iterations to
// convergence and the worst final residual, so the continuous-bench history
// catches numerical regressions (a change that converges slower or less
// tightly) even when wall time hides them.
func BenchmarkLOBPCGSolve(b *testing.B) {
	h, err := ooc.Hamiltonian(ooc.DefaultHamiltonian(300))
	if err != nil {
		b.Fatal(err)
	}
	var iters int
	var residual float64
	for i := 0; i < b.N; i++ {
		res, err := linalg.LOBPCG(linalg.DenseOperator{A: h},
			linalg.LOBPCGOptions{K: 4, MaxIter: 200, Tol: 1e-6, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iterations
		residual = 0
		for _, r := range res.Residuals {
			if r > residual {
				residual = r
			}
		}
	}
	b.ReportMetric(float64(iters), "solve-iters")
	b.ReportMetric(residual, "max-residual")
}

// BenchmarkAblationBusLadder sweeps the NVM interface generations of §3.3 on
// the UFS stack with an infinite host path, exposing the raw media effect.
func BenchmarkAblationBusLadder(b *testing.B) {
	geo := nvm.PaperGeometry()
	cp := nvm.Params(nvm.PCM)
	ladder := nvm.BusLadder()
	results := make([]float64, len(ladder))
	for i := 0; i < b.N; i++ {
		for j, bus := range ladder {
			drive, err := ssd.New(ssd.Config{
				Geometry: geo, Cell: cp, Bus: bus,
				Link:       interconnect.Infinite{},
				Translator: ssd.NewDirect(geo, cp),
				Seed:       1,
			})
			if err != nil {
				b.Fatal(err)
			}
			for off := int64(0); off < 64<<20; off += 8 << 20 {
				drive.Submit(traceRead(off, 8<<20))
			}
			results[j] = drive.Finish().MBps()
		}
	}
	for j, bus := range ladder {
		b.ReportMetric(results[j], "MBps_"+bus.Name)
	}
}

// BenchmarkAblationPAQ compares FIFO dispatch against physically addressed
// queueing on a bursty conflict-heavy trace with a shallow device queue.
func BenchmarkAblationPAQ(b *testing.B) {
	geo := nvm.PaperGeometry()
	cp := nvm.Params(nvm.TLC)
	dieStride := int64(geo.Channels*cp.Planes) * cp.PageSize
	var ops []trace.BlockOp
	for burst := 0; burst < 32; burst++ {
		die := int64(burst % 2)
		for i := 0; i < 16; i++ {
			ops = append(ops, trace.BlockOp{Kind: trace.Read, Offset: die * dieStride, Size: cp.PageSize})
		}
	}
	mk := func() *ssd.SSD {
		drive, err := ssd.New(ssd.Config{
			Geometry: geo, Cell: cp, Bus: nvm.ONFi3SDR(),
			Link:       interconnect.Infinite{},
			Translator: ssd.NewDirect(geo, cp),
			QueueDepth: 2, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return drive
	}
	var fifoBW, paqBW float64
	for i := 0; i < b.N; i++ {
		fifoBW = mk().Replay(ops).MBps()
		paqBW = ssd.NewPAQ(mk(), 32).Replay(ops).MBps()
	}
	b.ReportMetric(fifoBW, "MBps_fifo")
	b.ReportMetric(paqBW, "MBps_paq")
}

// BenchmarkClusterScale evaluates the Figure 2 architecture comparison at
// 40-node scale: per-application I/O+communication time under both
// placements, and the migration's speedup.
func BenchmarkClusterScale(b *testing.B) {
	var ionRes, cnlRes cluster.DistributedResult
	for i := 0; i < b.N; i++ {
		var err error
		ionRes, cnlRes, err = cluster.SimulateDistributed(cluster.Carver(), cluster.DefaultDistributedJob())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ionRes.PerApp.Seconds(), "s_perapp_ion")
	b.ReportMetric(cnlRes.PerApp.Seconds(), "s_perapp_cnl")
	b.ReportMetric(cluster.Speedup(ionRes, cnlRes), "x_speedup")
}

// BenchmarkEnduranceLifetime reports the §2.3 endurance ladder as device
// lifetime under a heavy preload-rewrite workload.
func BenchmarkEnduranceLifetime(b *testing.B) {
	var years [4]float64
	for i := 0; i < b.N; i++ {
		for j, c := range nvm.CellTypes {
			y, err := nvm.Lifetime(nvm.Params(c), 1<<40, 10<<40, 1.5)
			if err != nil {
				b.Fatal(err)
			}
			years[j] = y
		}
	}
	for j, c := range nvm.CellTypes {
		b.ReportMetric(years[j], "years_"+c.String())
	}
}

// BenchmarkAblationDieCount sweeps the die-interleave depth (DESIGN.md §5):
// the same medium behind 4, 8 and 16 dies per channel.
func BenchmarkAblationDieCount(b *testing.B) {
	depths := []int{4, 8, 16}
	results := make([]float64, len(depths))
	for i := 0; i < b.N; i++ {
		for j, d := range depths {
			geo := nvm.Geometry{Channels: 8, PackagesPerChannel: d / 2, DiesPerPackage: 2, BlocksPerPlane: 2048}
			cp := nvm.Params(nvm.TLC)
			drive, err := ssd.New(ssd.Config{
				Geometry: geo, Cell: cp, Bus: nvm.FutureDDR(),
				Link:       interconnect.Infinite{},
				Translator: ssd.NewDirect(geo, cp),
				Seed:       1,
			})
			if err != nil {
				b.Fatal(err)
			}
			for off := int64(0); off < 64<<20; off += 8 << 20 {
				drive.Submit(traceRead(off, 8<<20))
			}
			results[j] = drive.Finish().MBps()
		}
	}
	for j, d := range depths {
		b.ReportMetric(results[j], fmt.Sprintf("MBps_dies%d", d*8))
	}
}

// BenchmarkAblationCacheMode compares plain against dual-register cache
// reads on a cell-limited stream (SLC behind the DDR bus).
func BenchmarkAblationCacheMode(b *testing.B) {
	run := func(cache bool) float64 {
		geo := nvm.PaperGeometry()
		cp := nvm.Params(nvm.SLC)
		drive, err := ssd.New(ssd.Config{
			Geometry: geo, Cell: cp, Bus: nvm.FutureDDR(),
			Link:       interconnect.Infinite{},
			Translator: ssd.NewDirect(geo, cp),
			Seed:       1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if cache {
			drive.Dev.EnableCacheMode()
		}
		for off := int64(0); off < 64<<20; off += 8 << 20 {
			drive.Submit(traceRead(off, 8<<20))
		}
		return drive.Finish().MBps()
	}
	var plain, cached float64
	for i := 0; i < b.N; i++ {
		plain = run(false)
		cached = run(true)
	}
	b.ReportMetric(plain, "MBps_plain")
	b.ReportMetric(cached, "MBps_cachemode")
}

// BenchmarkEnergyComparison quantifies the paper's §1 economics: Joules and
// capital for distributed-DRAM versus compute-local NVM provisioning of a
// 256 GiB per-node dataset share.
func BenchmarkEnergyComparison(b *testing.B) {
	var c energy.Comparison
	for i := 0; i < b.N; i++ {
		var err error
		c, err = energy.Compare(256<<30, 4<<30, 3600*sim.Second, 0.7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(c.EnergyRatio, "x_energy")
	b.ReportMetric(c.CapitalRatio, "x_capital")
}
