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
	if o.faultProfile == "" {
		o.faultProfile = "none"
	}
	prof, err := fault.ForName(o.faultProfile)
	if err != nil {
		return err
	}
	for _, f := range []struct {
		name  string
		v     float64
		aging bool // meaningful only under a profile that injects faults
	}{
		{"-retention-days", o.retentionDays, true},
		{"-precycle", float64(o.precycle), true},
		{"-spares", float64(o.spares), true},
		{"-durable-ckpt", float64(o.durableCkpt), false},
		{"-paq", float64(o.paqDepth), false},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must not be negative, got %v", f.name, f.v)
		}
		if f.aging && f.v > 0 && !prof.Enabled() {
			return fmt.Errorf("%s %v needs a -fault-profile that injects faults", f.name, f.v)
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

	// Observability is collected only when an export was requested; the
	// stack runs with free no-op probes otherwise.
	col := o.exp.Collector()
	samp := o.exp.Sampler()
	rec := o.exp.Recorder(col)

	prof.SpareBlocks = o.spares
	opt := experiment.Options{
		Geometry:               nvm.PaperGeometry(),
		QueueDepth:             o.qd,
		Seed:                   o.seed,
		Obs:                    col,
		Fault:                  prof,
		RetentionDays:          o.retentionDays,
		PrecyclePE:             o.precycle,
		Sampler:                samp,
		Attrib:                 rec,
		DurableCheckpointPages: o.durableCkpt,
	}
	tr, err := experiment.Translator(cfg, cell, opt)
	if err != nil {
		return err
	}
	drive, err := experiment.Assemble(cfg, cell, tr, opt, o.windowKiB<<10)
	if err != nil {
		return err
	}
	if o.cache {
		drive.Dev.EnableCacheMode()
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
		q := ssd.NewPAQ(drive.SSD, o.paqDepth)
		for _, op := range ops {
			q.Submit(op)
		}
		q.Flush()
		res, err = drive.Finish()
	} else {
		res, err = drive.Replay(ops)
	}
	endReplay()
	if err != nil {
		return err
	}
	lat := drive.Dev.Latency()

	fmt.Fprintf(w, "config: %s on %s (%s, %s)\n", cfg.Name, cell, cfg.PCIe, cfg.Bus.Name)
	fmt.Fprint(w, res)
	fmt.Fprintf(w, "latency: p50 %v  p95 %v  p99 %v  max %v\n", lat.P50, lat.P95, lat.P99, lat.Max)
	if drive.Fault != nil {
		fmt.Fprintf(w, "fault profile: %s (retention %.0f days, precycle %d PE)\n",
			o.faultProfile, drive.Fault.Profile().RetentionDays, o.precycle)
		fmt.Fprint(w, res.Faults)
		if err := drive.Err(); err != nil {
			fmt.Fprintf(w, "first error: %v\n", err)
		}
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
		if drive.Fault != nil {
			info.FaultSummary = res.Faults.String()
		}
		if err := o.exp.Write(w, col, samp, rec, host, info); err != nil {
			return err
		}
	}
	return nil
}
