// Command replay drives a captured block trace (as written by tracegen)
// through a chosen device configuration — the NANDFlashSim workflow of §4.2:
// "since these traces are at the device-level, they may be directly fed to
// the simulator."
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"oocnvm/internal/cluster"
	"oocnvm/internal/experiment"
	"oocnvm/internal/fault"
	"oocnvm/internal/ftl"
	"oocnvm/internal/netfault"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs/export"
	"oocnvm/internal/obs/report"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

type options struct {
	file          string
	asJSON        bool
	cfgName       string
	cellName      string
	qd            int
	windowKiB     int64
	paqDepth      int
	cache         bool
	seed          uint64
	exp           export.Flags
	faultProfile  string
	netProfile    string
	retentionDays float64
	precycle      int64
	spares        int64
	durableCkpt   int64
}

func main() {
	var o options
	flag.StringVar(&o.file, "trace", "", "block trace file (binary or JSON)")
	flag.BoolVar(&o.asJSON, "json", false, "trace file is JSON")
	flag.StringVar(&o.cfgName, "config", "CNL-UFS", "Table 2 configuration to replay on")
	flag.StringVar(&o.cellName, "cell", "SLC", "NVM type: SLC, MLC, TLC, PCM")
	flag.IntVar(&o.qd, "qd", 32, "queue depth")
	flag.Int64Var(&o.windowKiB, "window", 0, "in-flight byte window in KiB (0 = unlimited)")
	flag.IntVar(&o.paqDepth, "paq", 0, "physically-addressed-queueing window (0 = FIFO)")
	flag.BoolVar(&o.cache, "cachemode", false, "enable dual-register cache operation")
	flag.Uint64Var(&o.seed, "seed", 42, "seed")
	o.exp.Register(flag.CommandLine)
	flag.StringVar(&o.faultProfile, "fault-profile", "none", "reliability profile: none, fresh, worn, eol")
	export.RegisterNetProfile(flag.CommandLine, &o.netProfile)
	flag.Float64Var(&o.retentionDays, "retention-days", 0, "age all data by this many days of retention")
	flag.Int64Var(&o.precycle, "precycle", 0, "pre-age every block by this many P/E cycles")
	flag.Int64Var(&o.spares, "spares", 0, "spare-block budget before read-only degradation (0 = default)")
	flag.Int64Var(&o.durableCkpt, "durable-ckpt", 0, "FTL durable-metadata mode: checkpoint the mapping table every N host pages (0 = off)")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func run(o options, w io.Writer) (retErr error) {
	if o.file == "" {
		return fmt.Errorf("-trace is required (capture one with tracegen)")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"-retention-days", o.retentionDays},
		{"-precycle", float64(o.precycle)},
		{"-spares", float64(o.spares)},
		{"-durable-ckpt", float64(o.durableCkpt)},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must not be negative, got %v", f.name, f.v)
		}
	}
	stopProf, err := o.exp.StartProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()
	// Host-cost collection starts before the first phase so trace loading,
	// staging and the replay each land in their own row of the table.
	host := o.exp.Host()
	endLoad := host.Phase("load-trace")
	f, err := os.Open(o.file)
	if err != nil {
		return err
	}
	defer f.Close()
	var ops []trace.BlockOp
	if o.asJSON {
		ops, err = trace.DecodeBlockJSON(f)
	} else {
		ops, err = trace.ReadBlockTrace(f)
	}
	endLoad()
	if err != nil {
		return err
	}

	cell, err := nvm.ParseCell(o.cellName)
	if err != nil {
		return err
	}
	cfg, err := experiment.FindConfig(o.cfgName)
	if err != nil {
		return err
	}

	geo := nvm.PaperGeometry()
	cp := nvm.Params(cell)
	var translator ssd.Translator
	if cfg.Kind == experiment.FSUFS {
		translator = ssd.NewDirect(geo, cp)
	} else {
		var dc ftl.DurableConfig
		if o.durableCkpt > 0 {
			dc = ftl.DurableConfig{Enabled: true, CheckpointEveryPages: o.durableCkpt}
		}
		ft, err := ftl.New(geo, cp, ftl.Config{Durable: dc})
		if err != nil {
			return err
		}
		translator = ft
	}

	// Observability is collected only when an export was requested; the
	// stack runs with free no-op probes otherwise.
	col := o.exp.Collector()
	samp := o.exp.Sampler()
	rec := o.exp.Recorder(col)

	link := cfg.BuildLink()
	sc := ssd.Config{
		Geometry:    geo,
		Cell:        cp,
		Bus:         cfg.Bus,
		Link:        link,
		Translator:  translator,
		QueueDepth:  o.qd,
		WindowBytes: o.windowKiB << 10,
		CacheMode:   o.cache,
		Seed:        o.seed,
		Sampler:     samp,
		Attrib:      rec,
	}
	if col != nil {
		sc.Probe = col
	}
	if o.faultProfile == "" {
		o.faultProfile = "none"
	}
	prof, err := fault.ForName(o.faultProfile)
	if err != nil {
		return err
	}
	if prof.Enabled() || o.retentionDays > 0 || o.precycle > 0 {
		fc := nvm.FaultConfig(geo, cp, prof, o.seed)
		fc.RetentionDays = o.retentionDays
		fc.PrecyclePE = o.precycle
		fc.SpareBlocks = o.spares
		inj, err := fault.New(fc)
		if err != nil {
			return err
		}
		sc.Fault = inj
	}
	drive, err := ssd.New(sc)
	if err != nil {
		return err
	}

	st := trace.Characterize(ops)
	fmt.Fprintf(w, "trace: %d ops, %d MiB (%d MiB data), mean request %.1f KiB, %.0f%% sequential\n",
		st.Ops, st.Bytes>>20, st.DataBytes>>20, st.MeanSize/1024, 100*st.SequentialPct)

	// With -net-profile, the dataset is first staged onto the compute-local
	// SSD across a degraded cluster fabric (the §3.1 preload under faults);
	// the default clean fabric skips the staging so existing replay output
	// stays byte-identical.
	if o.netProfile == "" {
		o.netProfile = "none"
	}
	if o.netProfile != "none" {
		endStage := host.Phase("staging")
		nprof, err := netfault.ForName(o.netProfile)
		if err != nil {
			endStage()
			return err
		}
		dataset := st.Bytes
		if dataset <= 0 {
			dataset = 64 << 20
		}
		pres, err := cluster.PreloadDegraded(cluster.ComputeLocal(), cluster.PreloadPlan{
			DatasetBytes: dataset,
		}, cluster.DegradedOptions{Profile: nprof, Seed: o.seed})
		endStage()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "staging (net profile %s): %v\n", o.netProfile, pres.Transfer)
	}

	endReplay := host.Phase("replay")
	var res ssd.Result
	if o.paqDepth > 1 {
		res = ssd.NewPAQ(drive, o.paqDepth).Replay(ops)
	} else {
		res = drive.Replay(ops)
	}
	endReplay()
	// A fault-free drive has no reason to reject an op, so its first error
	// means the bandwidth is not the trace's: fail the run.
	if err := drive.Err(); err != nil && sc.Fault == nil {
		return fmt.Errorf("%s/%s: %w", cfg.Name, cell, err)
	}
	lat := drive.Dev.Latency()

	fmt.Fprintf(w, "config: %s on %s (%s, %s)\n", cfg.Name, cell, cfg.PCIe, cfg.Bus.Name)
	fmt.Fprint(w, res)
	fmt.Fprintf(w, "latency: p50 %v  p95 %v  p99 %v  max %v\n", lat.P50, lat.P95, lat.P99, lat.Max)
	if sc.Fault != nil {
		fmt.Fprintf(w, "fault profile: %s (retention %.0f days, precycle %d PE)\n",
			o.faultProfile, sc.Fault.Profile().RetentionDays, o.precycle)
		fmt.Fprint(w, res.Faults)
		if err := drive.Err(); err != nil {
			fmt.Fprintf(w, "first error: %v\n", err)
		}
	}

	if col != nil {
		col.Reg.Absorb(drive.Dev.Registry())
	}
	if o.exp.Enabled() || host != nil {
		info := report.RunInfo{
			Title: fmt.Sprintf("replay %s on %s/%s", o.file, cfg.Name, cell),
			Params: [][2]string{
				{"trace", o.file},
				{"config", cfg.Name},
				{"cell", cell.String()},
				{"pcie", cfg.PCIe.String()},
				{"bus", cfg.Bus.Name},
				{"queue depth", fmt.Sprint(o.qd)},
				{"window KiB", fmt.Sprint(o.windowKiB)},
				{"seed", fmt.Sprint(o.seed)},
				{"fault profile", o.faultProfile},
				{"net profile", o.netProfile},
			},
		}
		if sc.Fault != nil {
			info.FaultSummary = res.Faults.String()
		}
		if err := o.exp.Write(w, col, samp, rec, host, info); err != nil {
			return err
		}
	}
	return nil
}
