// Command oocbench regenerates the paper's tables and figures from the
// simulated stack. With no flags it runs the full evaluation matrix and
// prints everything in paper order.
//
// Usage:
//
//	oocbench [-fig 1|6|7a|7b|8a|8b|9a|9b|10a|10b|10c|10d] [-table 1|2]
//	         [-summary] [-topology] [-matrix MiB] [-panel MiB] [-apps N]
//	         [-seed N] [-qd N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"oocnvm/internal/cache"
	"oocnvm/internal/cluster"
	"oocnvm/internal/energy"
	"oocnvm/internal/experiment"
	"oocnvm/internal/fault"
	"oocnvm/internal/netfault"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs/export"
	"oocnvm/internal/obs/report"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/ooc"
	"oocnvm/internal/sim"
	"oocnvm/internal/trace"
)

func main() {
	var (
		fig      = flag.String("fig", "", "regenerate one figure (1,6,7a,7b,8a,8b,9a,9b,10a,10b,10c,10d)")
		table    = flag.String("table", "", "regenerate one table (1,2)")
		summary  = flag.Bool("summary", false, "print only the headline ratios")
		topology = flag.Bool("topology", false, "print the cluster topologies and preload estimate")
		distrib  = flag.Bool("distributed", false, "print the 40-node cluster-scale comparison")
		energy   = flag.Bool("energy", false, "print the energy/cost comparison behind the paper's motivation")
		cacheF   = flag.Bool("cache", false, "print the host-side flash-cache study the paper argues against")
		chart    = flag.Bool("chart", false, "render figures 7a/8a as ASCII bar charts")
		matrix   = flag.Int("matrix", 512, "Hamiltonian footprint in MiB")
		panel    = flag.Int("panel", 8, "row-panel read size in MiB")
		apps     = flag.Int("apps", 4, "operator applications (2 per LOBPCG iteration)")
		seed     = flag.Uint64("seed", 42, "simulation seed")
		qd       = flag.Int("qd", 32, "host queue depth")
		faultP   = flag.String("fault-profile", "none", "reliability profile for the achieved runs: none, fresh, worn, eol")
		netProf  string
		retDays  = flag.Float64("retention-days", 0, "age all data by this many days of retention")
		precycle = flag.Int64("precycle", 0, "pre-age every block by this many P/E cycles")
		durCkpt  = flag.Int64("durable-ckpt", 0, "FTL durable-metadata mode: checkpoint the mapping table every N host pages (0 = off)")
		exp      export.Flags
	)
	exp.Register(flag.CommandLine)
	flag.CommandLine.Lookup("hostperf").Usage += "; one phase per matrix cell (runs cells serially)"
	export.RegisterNetProfile(flag.CommandLine, &netProf)
	flag.Parse()

	opt := experiment.DefaultOptions()
	opt.Workload = ooc.Workload{
		MatrixBytes:  int64(*matrix) << 20,
		PanelBytes:   int64(*panel) << 20,
		Applications: *apps,
	}
	opt.Seed = *seed
	opt.QueueDepth = *qd
	prof, err := fault.ForName(*faultP)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oocbench:", err)
		os.Exit(1)
	}
	opt.Fault = prof
	opt.RetentionDays = *retDays
	opt.PrecyclePE = *precycle
	opt.DurableCheckpointPages = *durCkpt
	opt.Obs = exp.Collector()
	samp := exp.Sampler()
	rec := exp.Recorder(opt.Obs)
	// With -hostperf every matrix cell records its own host-cost phase (and
	// the matrix serializes so the allocation attribution stays exact).
	opt.Host = exp.Host()
	stopProf, err := exp.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "oocbench:", err)
		os.Exit(1)
	}

	if err := run(opt, *fig, *table, *summary, *topology, *distrib, *energy, *cacheF, *chart, netProf, samp, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "oocbench:", err)
		os.Exit(1)
	}
	// The cache study samples its own synthetic clock; every other mode gets
	// its timelines and latency attribution from a dedicated single
	// instrumented run (Matrix drops the sampler and the recorder: each
	// belongs to one run's clock).
	if (samp != nil || rec != nil) && !*cacheF {
		sopt := opt
		sopt.MeasureRemaining = false
		sopt.Sampler = samp
		sopt.Attrib = rec
		cfg, err := experiment.FindConfig("CNL-EXT4")
		if err == nil {
			_, err = experiment.Run(cfg, nvm.TLC, sopt)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "oocbench:", err)
			os.Exit(1)
		}
		if samp != nil {
			fmt.Printf("telemetry: sampled a dedicated CNL-EXT4/TLC run every %v\n", samp.Interval())
		}
		if rec != nil {
			fmt.Printf("attribution: decomposed a dedicated CNL-EXT4/TLC run (%d requests)\n", rec.Requests())
		}
	}
	if exp.Enabled() || opt.Host != nil {
		info := report.RunInfo{
			Title: "oocbench evaluation",
			Params: [][2]string{
				{"matrix MiB", fmt.Sprint(*matrix)},
				{"panel MiB", fmt.Sprint(*panel)},
				{"applications", fmt.Sprint(*apps)},
				{"queue depth", fmt.Sprint(*qd)},
				{"seed", fmt.Sprint(*seed)},
				{"fault profile", *faultP},
			},
		}
		if err := exp.Write(os.Stdout, opt.Obs, samp, rec, opt.Host, info); err != nil {
			fmt.Fprintln(os.Stderr, "oocbench:", err)
			os.Exit(1)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "oocbench:", err)
		os.Exit(1)
	}
}

func run(opt experiment.Options, fig, table string, summary, topology, distrib, energyFlag, cacheFlag, chart bool, netProfile string, samp *timeseries.Sampler, out io.Writer) error {
	for _, f := range []struct {
		name  string
		v     float64
		aging bool // meaningful only under a profile that injects faults
	}{
		{"-retention-days", opt.RetentionDays, true},
		{"-precycle", float64(opt.PrecyclePE), true},
		{"-durable-ckpt", float64(opt.DurableCheckpointPages), false},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must not be negative, got %v", f.name, f.v)
		}
		if f.aging && f.v > 0 && !opt.Fault.Enabled() {
			return fmt.Errorf("%s %v needs a -fault-profile that injects faults", f.name, f.v)
		}
	}
	cells := nvm.CellTypes

	switch {
	case table == "1":
		fmt.Fprint(out, experiment.FormatTable1())
		return nil
	case table == "2":
		fmt.Fprint(out, experiment.FormatTable2())
		return nil
	case fig == "1":
		fmt.Fprint(out, experiment.FormatFig1())
		return nil
	case fig == "6":
		s, err := experiment.FormatFig6(opt, 64)
		if err != nil {
			return err
		}
		fmt.Fprint(out, s)
		return nil
	case topology:
		return printTopology(opt, netProfile, out)
	case distrib:
		return printDistributed(out)
	case energyFlag:
		return printEnergy(out)
	case cacheFlag:
		return printCacheStudy(opt, samp, out)
	}

	// Everything else needs the measurement matrix. Only Figures 7b and 8b,
	// alone or in the full report, print what the media could have
	// delivered; the other figures would replay every cell twice for it.
	opt.MeasureRemaining = fig == "7b" || fig == "8b" || (fig == "" && !summary)
	var configs []experiment.Config
	switch fig {
	case "7a", "7b":
		configs = experiment.FileSystemConfigs()
	case "8a", "8b":
		configs = experiment.DeviceConfigs()
	default:
		configs = experiment.Table2()
	}
	ms, err := experiment.Matrix(configs, cells, opt)
	if err != nil {
		return err
	}

	switch fig {
	case "7a":
		if chart {
			fmt.Fprint(out, experiment.BandwidthChart("Figure 7a", ms, configs, nvm.SLC))
			fmt.Fprintln(out)
			fmt.Fprint(out, experiment.BandwidthChart("Figure 7a", ms, configs, nvm.TLC))
			break
		}
		fmt.Fprint(out, experiment.FormatBandwidthTable("Figure 7a", ms, configs, cells))
	case "7b":
		fmt.Fprint(out, experiment.FormatRemainingTable("Figure 7b", ms, configs, cells))
	case "8a":
		if chart {
			fmt.Fprint(out, experiment.BandwidthChart("Figure 8a", ms, configs, nvm.PCM))
			break
		}
		fmt.Fprint(out, experiment.FormatBandwidthTable("Figure 8a", ms, configs, cells))
	case "8b":
		fmt.Fprint(out, experiment.FormatRemainingTable("Figure 8b", ms, configs, cells))
	case "9a":
		fmt.Fprint(out, experiment.FormatChannelUtilTable(ms, configs, cells))
	case "9b":
		fmt.Fprint(out, experiment.FormatPackageUtilTable(ms, configs, cells))
	case "10a":
		fmt.Fprint(out, experiment.FormatBreakdownTable(nvm.TLC, ms, configs))
	case "10b":
		fmt.Fprint(out, experiment.FormatPALTable(nvm.TLC, ms, configs))
	case "10c":
		fmt.Fprint(out, experiment.FormatBreakdownTable(nvm.PCM, ms, configs))
	case "10d":
		fmt.Fprint(out, experiment.FormatPALTable(nvm.PCM, ms, configs))
	case "":
		if summary {
			s, err := experiment.Summarize(ms, cells)
			if err != nil {
				return err
			}
			fmt.Fprint(out, s.Format(cells))
			return nil
		}
		// Full report in paper order.
		fmt.Fprint(out, experiment.FormatFig1())
		fmt.Fprintln(out)
		fmt.Fprint(out, experiment.FormatTable1())
		fmt.Fprintln(out)
		fmt.Fprint(out, experiment.FormatTable2())
		fmt.Fprintln(out)
		if s, err := experiment.FormatFig6(opt, 32); err == nil {
			fmt.Fprint(out, s)
			fmt.Fprintln(out)
		}
		fsCfg := experiment.FileSystemConfigs()
		devCfg := experiment.DeviceConfigs()
		fmt.Fprint(out, experiment.FormatBandwidthTable("Figure 7a", ms, fsCfg, cells))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiment.FormatRemainingTable("Figure 7b", ms, fsCfg, cells))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiment.FormatBandwidthTable("Figure 8a", ms, devCfg, cells))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiment.FormatRemainingTable("Figure 8b", ms, devCfg, cells))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiment.FormatChannelUtilTable(ms, configs, cells))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiment.FormatPackageUtilTable(ms, configs, cells))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiment.FormatBreakdownTable(nvm.TLC, ms, configs))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiment.FormatPALTable(nvm.TLC, ms, configs))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiment.FormatBreakdownTable(nvm.PCM, ms, configs))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiment.FormatPALTable(nvm.PCM, ms, configs))
		fmt.Fprintln(out)
		s, err := experiment.Summarize(ms, cells)
		if err != nil {
			return err
		}
		fmt.Fprint(out, s.Format(cells))
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

func printDistributed(out io.Writer) error {
	job := cluster.DefaultDistributedJob()
	ion, cnl, err := cluster.SimulateDistributed(cluster.Carver(), job)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "cluster-scale OoC solve: %d nodes, %d GiB Hamiltonian, %d applications\n",
		job.Nodes, job.MatrixBytes>>30, job.Applications)
	for _, r := range []cluster.DistributedResult{ion, cnl} {
		fmt.Fprintf(out, "  %-10s per-application: I/O %v + comm %v = %v  (node read %.2f GB/s)\n",
			r.Placement, r.IOTime, r.CommTime, r.PerApp, r.NodeReadBW/1e9)
	}
	fmt.Fprintf(out, "  migrating the SSDs to the compute nodes: %.1fx faster end to end\n",
		cluster.Speedup(ion, cnl))
	return nil
}

func printEnergy(out io.Writer) error {
	// A 256 GiB per-node dataset share over a one-hour solve at 70% activity.
	c, err := energy.Compare(256<<30, 4<<30, 3600*sim.Second, 0.7)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "provisioning a 256 GiB per-node out-of-core dataset (per node):")
	for _, a := range []energy.Approach{c.InMemory, c.NVM} {
		fmt.Fprintf(out, "  %-20s DRAM %3d GiB, SSD %3d GiB, IB ports %d: $%.0f capital, %.0f kJ per hour-long solve\n",
			a.Name, a.DRAMBytes>>30, a.SSDBytes>>30, a.NetworkPorts,
			a.CapitalCost(), a.RunEnergy(3600*sim.Second, 0.7)/1000)
	}
	fmt.Fprintf(out, "  distributed DRAM costs %.1fx the capital and %.1fx the energy of compute-local NVM\n",
		c.CapitalRatio, c.EnergyRatio)
	return nil
}

func printCacheStudy(opt experiment.Options, samp *timeseries.Sampler, out io.Writer) error {
	posix, err := opt.Workload.PosixTrace()
	if err != nil {
		return err
	}
	ops := make([]trace.BlockOp, 0, len(posix))
	for _, p := range posix {
		ops = append(ops, trace.BlockOp{Kind: p.Kind, Offset: p.Offset, Size: p.Size})
	}
	const fastBW, slowBW = 3.06e9, 1.05e9 // CNL-UFS vs ION-GPFS envelopes
	fmt.Fprintf(out, "host-side flash cache on the OoC trace (%d MiB working set, LRU, 64 KiB blocks):\n",
		opt.Workload.MatrixBytes>>20)
	for _, frac := range []int64{2, 1} {
		capacity := opt.Workload.MatrixBytes / frac
		// Only the half-sized cache (the interesting heat-up curve) feeds the
		// report's timeline; the sampler keeps one clock.
		ts := samp
		if frac != 2 {
			ts = nil
		}
		st, err := cache.RunStudySampled(ops, capacity, 64<<10, opt.Workload.MatrixBytes, fastBW, slowBW, ts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  cache = dataset/%d: hit rate %5.1f%%, effective %7.0f MB/s, heat-up %v\n",
			frac, 100*st.HitRate, st.EffectiveBW/1e6, st.HeatUp)
	}
	fmt.Fprintf(out, "  application-managed UFS (no cache):              %7.0f MB/s, no heat-up\n", fastBW/1e6)
	fmt.Fprintln(out, "  (the paper's §1 argument: scan-everything OoC traffic defeats LRU caching)")
	return nil
}

func printTopology(opt experiment.Options, netProfile string, out io.Writer) error {
	for _, t := range []cluster.Topology{cluster.Carver(), cluster.ComputeLocal()} {
		fmt.Fprintf(out, "%s: %d CNs (%d cores), %d OoC CNs, %d IONs, %d SSDs, placement %s, network %s\n",
			t.Name, t.ComputeNodes, t.ComputeNodes*t.CoresPerCN, t.OoCComputeNodes,
			t.IONs, t.SSDs(), t.Placement, t.Network.Name)
	}
	res, err := cluster.Preload(cluster.ComputeLocal(), cluster.PreloadPlan{
		DatasetBytes:  opt.Workload.MatrixBytes,
		OverlapWindow: 30 * sim.Second,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "preload of %d MiB dataset: %v (disk streaming %.0f MB/s, hidden behind prior job: %v)\n",
		opt.Workload.MatrixBytes>>20, res.Duration, res.DiskBW/1e6, res.Hidden)

	// With -net-profile the same preload and a checkpoint drain are rerun
	// across the degraded fabric, showing the retry/goodput cost.
	if netProfile != "" && netProfile != "none" {
		prof, err := netfault.ForName(netProfile)
		if err != nil {
			return err
		}
		dopt := cluster.DegradedOptions{Profile: prof, Seed: opt.Seed}
		deg, err := cluster.PreloadDegraded(cluster.ComputeLocal(), cluster.PreloadPlan{
			DatasetBytes:  opt.Workload.MatrixBytes,
			OverlapWindow: 30 * sim.Second,
		}, dopt)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "degraded preload (%s): %v\n", netProfile, deg.Transfer)
		drain, err := cluster.DrainCheckpoint(cluster.ComputeLocal(), cluster.CheckpointPlan{
			SnapshotBytes: opt.Workload.MatrixBytes,
		}, dopt)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "degraded checkpoint drain (%s): %v\n", netProfile, drain.Transfer)
	}
	return nil
}
