// Command nvmsim drives the NVM device model directly with synthetic
// workloads — the standalone equivalent of the paper's NANDFlashSim runs.
// It reports bandwidth, the six-state execution breakdown, PAL parallelism,
// and channel/package utilization for one device configuration.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"oocnvm/internal/interconnect"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs/export"
	"oocnvm/internal/obs/report"
	"oocnvm/internal/sim"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

func main() {
	var (
		cellName = flag.String("cell", "SLC", "NVM type: SLC, MLC, TLC, PCM")
		busName  = flag.String("bus", "sdr", "channel bus: sdr (ONFi3 400MHz) or ddr (future 800MHz)")
		gen      = flag.Int("pcie", 2, "PCIe generation: 2 or 3")
		lanes    = flag.Int("lanes", 8, "PCIe lanes")
		bridged  = flag.Bool("bridged", true, "SATA-bridged controller architecture")
		pattern  = flag.String("pattern", "seq", "access pattern: seq or rand")
		kind     = flag.String("op", "read", "operation: read or write")
		reqKiB   = flag.Int64("req", 8192, "request size in KiB")
		count    = flag.Int("n", 64, "number of requests")
		window   = flag.Int64("window", 0, "in-flight byte window in KiB (0 = queue-depth bound)")
		qd       = flag.Int("qd", 32, "queue depth")
		seed     = flag.Uint64("seed", 1, "seed")
		exp      export.Flags
	)
	exp.Register(flag.CommandLine)
	flag.Parse()
	if err := run(*cellName, *busName, *gen, *lanes, *bridged, *pattern, *kind, *reqKiB, *count, *window, *qd, *seed, exp, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nvmsim:", err)
		os.Exit(1)
	}
}

func run(cellName, busName string, gen, lanes int, bridged bool, pattern, kind string, reqKiB int64, count int, windowKiB int64, qd int, seed uint64, exp export.Flags, out io.Writer) (retErr error) {
	stopProf, err := exp.StartProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()
	var cell nvm.CellType
	switch cellName {
	case "SLC":
		cell = nvm.SLC
	case "MLC":
		cell = nvm.MLC
	case "TLC":
		cell = nvm.TLC
	case "PCM":
		cell = nvm.PCM
	default:
		return fmt.Errorf("unknown cell type %q", cellName)
	}
	var bus nvm.BusParams
	switch busName {
	case "sdr":
		bus = nvm.ONFi3SDR()
	case "ddr":
		bus = nvm.FutureDDR()
	default:
		return fmt.Errorf("unknown bus %q", busName)
	}
	var pg interconnect.PCIeGen
	switch gen {
	case 2:
		pg = interconnect.PCIeGen2
	case 3:
		pg = interconnect.PCIeGen3
	default:
		return fmt.Errorf("-pcie %d: want 2 or 3", gen)
	}
	if lanes < 1 {
		return fmt.Errorf("-lanes %d: want at least 1", lanes)
	}
	pcie := interconnect.PCIeConfig{Gen: pg, Lanes: lanes, Bridged: bridged}
	var opKind trace.Kind
	switch kind {
	case "read":
		opKind = trace.Read
	case "write":
		opKind = trace.Write
	default:
		return fmt.Errorf("-op %q: want read or write", kind)
	}
	if pattern != "seq" && pattern != "rand" {
		return fmt.Errorf("-pattern %q: want seq or rand", pattern)
	}
	if count < 1 {
		return fmt.Errorf("-n %d: want at least 1", count)
	}

	geo := nvm.PaperGeometry()
	cp := nvm.Params(cell)
	capacity := geo.Capacity(cp)
	if reqKiB < 1 || reqKiB > capacity>>10 {
		return fmt.Errorf("-req %d: want 1 to %d KiB (the device capacity)", reqKiB, capacity>>10)
	}
	col := exp.Collector()
	samp := exp.Sampler()
	rec := exp.Recorder(col)
	host := exp.Host()
	sc := ssd.Config{
		Geometry:    geo,
		Cell:        cp,
		Bus:         bus,
		Link:        interconnect.NewPCIeLine(pcie),
		Translator:  ssd.NewDirect(geo, cp),
		QueueDepth:  qd,
		WindowBytes: windowKiB << 10,
		Seed:        seed,
		Sampler:     samp,
		Attrib:      rec,
	}
	if col != nil {
		sc.Probe = col
	}
	drive, err := ssd.New(sc)
	if err != nil {
		return err
	}

	rng := sim.NewRNG(seed)
	req := reqKiB << 10
	var ops []trace.BlockOp
	off := int64(0)
	for i := 0; i < count; i++ {
		if pattern == "rand" {
			off = rng.Int63n(capacity/req) * req
		}
		ops = append(ops, trace.BlockOp{Kind: opKind, Offset: off % capacity, Size: req})
		if pattern == "seq" {
			off += req
		}
	}
	endReplay := host.Phase("replay")
	res := drive.Replay(ops)
	endReplay()
	// nvmsim injects no faults, so any error (a request crossing the end of
	// the device) means the bandwidth is not the workload's: fail the run.
	if err := drive.Err(); err != nil {
		return fmt.Errorf("%s, %s, %s: %w", cell, bus.Name, pcie, err)
	}

	fmt.Fprintf(out, "device: %s, %s, %s, %d ch x %d pkg x %d dies, %d planes/die\n",
		cell, bus.Name, pcie, geo.Channels, geo.Packages(), geo.Dies(), cp.Planes)
	fmt.Fprintf(out, "workload: %d x %d KiB %s %s\n", count, reqKiB, pattern, kind)
	fmt.Fprintf(out, "elapsed:   %v\n", res.Elapsed)
	fmt.Fprintf(out, "bandwidth: %.1f MB/s\n", res.MBps())
	fmt.Fprintf(out, "channel utilization: %.1f%%   package utilization: %.1f%%   bus occupancy: %.1f%%\n",
		100*res.Stats.ChannelUtilization, 100*res.Stats.PackageUtilization, 100*res.Stats.BusOccupancy)
	p := res.Stats.Breakdown.Percentages()
	for i, label := range nvm.BreakdownLabels {
		fmt.Fprintf(out, "  %-22s %5.1f%%\n", label, 100*p[i])
	}
	fr := res.Stats.PAL.Fractions()
	fmt.Fprintf(out, "parallelism: PAL1 %.1f%%  PAL2 %.1f%%  PAL3 %.1f%%  PAL4 %.1f%%\n",
		100*fr[0], 100*fr[1], 100*fr[2], 100*fr[3])

	if col != nil {
		col.Reg.Absorb(drive.Dev.Registry())
	}
	if exp.Enabled() || host != nil {
		info := report.RunInfo{
			Title: fmt.Sprintf("nvmsim %s %s %s", cell, pattern, kind),
			Params: [][2]string{
				{"cell", cell.String()},
				{"bus", bus.Name},
				{"pcie", pcie.String()},
				{"pattern", pattern},
				{"op", kind},
				{"request KiB", fmt.Sprint(reqKiB)},
				{"requests", fmt.Sprint(count)},
				{"queue depth", fmt.Sprint(qd)},
				{"seed", fmt.Sprint(seed)},
			},
		}
		if err := exp.Write(out, col, samp, rec, host, info); err != nil {
			return err
		}
	}
	return nil
}
