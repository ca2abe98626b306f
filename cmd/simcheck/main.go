// Command simcheck runs the cross-layer conformance suite: N seeded
// property-based episodes per (configuration, cell) pair, each replayed
// through a freshly built stack wrapped in the shadow data-integrity oracle
// and checked against the analytical performance envelope, followed by
// metamorphic invariant checks (seed determinism, lane/channel
// monotonicity, ION→CNL placement). On violation it prints a report and —
// for episode failures — a ddmin-minimized reproducer trace, then exits
// non-zero.
//
// With -net-profile it additionally sweeps the degraded-network transfer
// scenarios (same-seed determinism, goodput/retry envelopes, journal
// resume) for the named netfault profile.
//
//	simcheck -episodes 25 -configs CNL-UFS,CNL-EXT4,ION-GPFS -cells MLC,TLC
//	simcheck -episodes 5 -configs CNL-UFS -cells MLC -fault worn
//	simcheck -episodes 5 -configs CNL-UFS -cells MLC -net-profile flaky
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"oocnvm/internal/check"
	"oocnvm/internal/experiment"
	"oocnvm/internal/fault"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs/export"
	"oocnvm/internal/obs/report"
	"oocnvm/internal/trace"
)

type options struct {
	episodes      int
	configs       string
	cells         string
	faultName     string
	netProfile    string
	seed          uint64
	ops           int
	metamorphic   bool
	shrink        bool
	crashSweep    bool
	crashEvery    int64
	crashTraceOut string
	crashStudy    bool
	host          export.Flags // only -hostperf and -hostperf-out
}

// failure pairs a violation with enough context to reproduce it.
type failure struct {
	where string
	viol  check.Violation
	sc    check.StackConfig
	trace int // failing episode's request count, 0 for metamorphic checks
}

func run(opt options, out io.Writer) error {
	// A sweep that does no work must not report a clean pass.
	switch {
	case opt.episodes < 1:
		return fmt.Errorf("simcheck: -episodes must be at least 1, got %d", opt.episodes)
	case opt.ops < 0:
		return fmt.Errorf("simcheck: -ops must not be negative, got %d", opt.ops)
	case opt.crashEvery < 0:
		return fmt.Errorf("simcheck: -crash-every must not be negative, got %d", opt.crashEvery)
	}
	var configs []experiment.Config
	for _, name := range strings.Split(opt.configs, ",") {
		cfg, err := experiment.FindConfig(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		configs = append(configs, cfg)
	}
	var cells []nvm.CellType
	for _, name := range strings.Split(opt.cells, ",") {
		c, err := nvm.ParseCell(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		cells = append(cells, c)
	}
	prof, err := fault.ForName(opt.faultName)
	if err != nil {
		return err
	}

	// With -hostperf every (config, cell) pair's episode batch is one
	// host-cost phase, so the table shows which pair the suite spends its
	// wall time and allocations on.
	host := opt.host.Host()

	var failures []failure
	episodes, requests := 0, 0
	var attributed int64
	fmt.Fprintf(out, "simcheck: %d episodes per pair, fault profile %q, base seed %d\n\n",
		opt.episodes, opt.faultName, opt.seed)

	for _, cfg := range configs {
		for _, cell := range cells {
			pair := fmt.Sprintf("%s/%v", cfg.Name, cell)
			endPair := host.Phase("episodes " + pair)
			pairReq, pairViol := 0, 0
			var pairAttrib int64
			for i := 0; i < opt.episodes; i++ {
				sc := check.StackConfig{Config: cfg, Cell: cell, Fault: prof,
					Seed: opt.seed + uint64(i)}
				res, err := check.RunEpisode(sc, opt.params(sc))
				if err != nil {
					return fmt.Errorf("%s seed=%d: %w", pair, sc.Seed, err)
				}
				episodes++
				pairReq += len(res.Trace)
				pairViol += len(res.Violations)
				pairAttrib += res.Attrib.Requests
				for _, v := range res.Violations {
					failures = append(failures, failure{
						where: fmt.Sprintf("%s seed=%d", pair, sc.Seed),
						viol:  v, sc: sc, trace: len(res.Trace)})
				}
			}
			endPair()
			requests += pairReq
			attributed += pairAttrib
			fmt.Fprintf(out, "  %-16s %3d episodes  %7d requests  %7d attributed  %d violations\n",
				pair, opt.episodes, pairReq, pairAttrib, pairViol)
		}
	}

	metaChecks := 0
	if opt.metamorphic {
		endMeta := host.Phase("metamorphic")
		fmt.Fprintf(out, "\nmetamorphic checks:\n")
		for _, cfg := range configs {
			for _, cell := range cells {
				pair := fmt.Sprintf("%s/%v", cfg.Name, cell)
				sc := check.StackConfig{Config: cfg, Cell: cell, Fault: prof, Seed: opt.seed}
				p := opt.params(sc)
				pairViol := 0
				for _, m := range []struct {
					label string
					fn    func(check.StackConfig, check.Params) ([]check.Violation, error)
				}{
					{"determinism", check.CheckDeterminism},
					{"lane monotonicity", check.CheckLaneMonotonicity},
					{"channel monotonicity", check.CheckChannelMonotonicity},
					{"ION->CNL placement", check.CheckPlacementMonotonicity},
				} {
					viol, err := m.fn(sc, p)
					if err != nil {
						return fmt.Errorf("%s %s: %w", pair, m.label, err)
					}
					metaChecks++
					pairViol += len(viol)
					for _, v := range viol {
						failures = append(failures, failure{
							where: fmt.Sprintf("%s %s", pair, m.label), viol: v, sc: sc})
					}
				}
				fmt.Fprintf(out, "  %-16s 4 relations  %d violations\n", pair, pairViol)
			}
		}
		endMeta()
	}

	crashPoints := 0
	if opt.crashSweep {
		endCrash := host.Phase("crash sweep")
		fmt.Fprintf(out, "\ncrash-point sweep (durability contract):\n")
		for _, cfg := range configs {
			if cfg.Kind == experiment.FSUFS {
				// UFS runs without an FTL — there is no durable mapping
				// metadata to crash and recover.
				continue
			}
			for _, cell := range cells {
				pair := fmt.Sprintf("%s/%v", cfg.Name, cell)
				sc := check.StackConfig{Config: cfg, Cell: cell, Seed: opt.seed}
				res, err := check.CrashSweep(sc, opt.params(sc), opt.crashEvery)
				if err != nil {
					endCrash()
					return fmt.Errorf("%s crash sweep: %w", pair, err)
				}
				crashPoints += res.Points
				det := "deterministic"
				if !res.DeterminismOK {
					det = "NON-DETERMINISTIC"
				}
				fmt.Fprintf(out, "  %-16s %3d crash points over %5d P/E boundaries  %s  %d failing\n",
					pair, res.Points, res.TotalPEOps, det, len(res.Failures))
				for _, f := range res.Failures {
					failures = append(failures, failure{
						where: fmt.Sprintf("%s crash %+v", pair, f.Plan), viol: f.Violations[0]})
					if len(f.Trace) > 0 {
						fmt.Fprintf(out, "  minimized crash reproducer for %s (%d requests):\n", pair, len(f.Trace))
						for _, op := range f.Trace {
							fmt.Fprintf(out, "    %v offset=%d size=%d sync=%v\n", op.Kind, op.Offset, op.Size, op.Sync)
						}
						if opt.crashTraceOut != "" {
							if err := export.WriteFile(opt.crashTraceOut, func(w io.Writer) error {
								return trace.WriteBlockTrace(w, f.Trace)
							}); err != nil {
								endCrash()
								return err
							}
							fmt.Fprintf(out, "  reproducer written to %s\n", opt.crashTraceOut)
						}
					}
				}
			}
		}
		endCrash()
	}

	if opt.crashStudy {
		endStudy := host.Phase("crash study")
		fmt.Fprintf(out, "\ncheckpoint-interval study (Fig 7a workload + Ψ checkpoints, cut at 75%% of P/E boundaries):\n")
		sopt := experiment.TestOptions()
		// The eigensolver's Fig 7a phase is read-intensive; enable its Ψ
		// checkpoint writes so the journal and mapping churn are actually
		// exercised between the cut and the last metadata checkpoint.
		sopt.Workload.PsiBytes = 2 * sopt.Workload.PanelBytes
		sopt.Workload.Applications = 4
		rows, err := check.CrashStudy(configs[0], cells[0], sopt,
			[]int64{128, 512, 2048, 8192})
		endStudy()
		if err != nil {
			return err
		}
		check.WriteStudy(out, rows)
	}

	if opt.netProfile != "" {
		endNet := host.Phase("netfault scenarios")
		fmt.Fprintf(out, "\nnetwork degradation scenarios:\n")
		nsum, err := check.NetfaultScenarios(opt.netProfile, opt.seed)
		endNet()
		if err != nil {
			return err
		}
		for _, v := range nsum.Violations {
			failures = append(failures, failure{where: "netfault/" + nsum.Profile, viol: v})
		}
		fmt.Fprintf(out, "  %-16s %3d transfer runs  %5d chunks  %5d attributed  %4d retries  %d violations\n",
			"netfault/"+nsum.Profile, nsum.Runs, nsum.Chunks, nsum.Attributed, nsum.Retries, len(nsum.Violations))
	}

	fmt.Fprintf(out, "\nsimcheck: %d episodes, %d requests (%d attribution-conserving), %d metamorphic checks, %d crash points, %d violations\n",
		episodes, requests, attributed, metaChecks, crashPoints, len(failures))
	if err := opt.host.Write(out, nil, nil, nil, host, report.RunInfo{}); err != nil {
		return err
	}
	if len(failures) == 0 {
		return nil
	}

	fmt.Fprintf(out, "\nviolation report:\n")
	for i, f := range failures {
		if i >= 20 {
			fmt.Fprintf(out, "  ... and %d more\n", len(failures)-20)
			break
		}
		fmt.Fprintf(out, "  [%s] %v\n", f.where, f.viol)
	}
	// Minimize the first failing episode to the smallest reproducer.
	if opt.shrink {
		for _, f := range failures {
			if f.trace == 0 {
				continue
			}
			res, err := check.RunEpisode(f.sc, opt.params(f.sc))
			if err != nil {
				break
			}
			small := check.Shrink(res.Trace, check.FailsWith(f.sc))
			fmt.Fprintf(out, "\nminimized reproducer for [%s] (%d -> %d requests):\n",
				f.where, len(res.Trace), len(small))
			for _, op := range small {
				fmt.Fprintf(out, "  %v offset=%d size=%d sync=%v\n", op.Kind, op.Offset, op.Size, op.Sync)
			}
			break
		}
	}
	return fmt.Errorf("simcheck: %d violations", len(failures))
}

// params sizes an episode's workload for the stack, honoring -ops.
func (o options) params(sc check.StackConfig) check.Params {
	p := check.DefaultParams(sc.Capacity(), nvm.Params(sc.Cell).PageSize)
	if o.ops > 0 {
		p.Ops = o.ops
	}
	return p
}

func main() {
	var opt options
	flag.IntVar(&opt.episodes, "episodes", 10, "seeded episodes per (config, cell) pair")
	flag.StringVar(&opt.configs, "configs", "CNL-UFS,CNL-EXT4,ION-GPFS", "comma-separated Table 2 configuration names")
	flag.StringVar(&opt.cells, "cells", "MLC,TLC", "comma-separated cell types (SLC, MLC, TLC, PCM)")
	flag.StringVar(&opt.faultName, "fault", "none", "fault profile: none, fresh, worn or eol")
	export.RegisterNetProfile(flag.CommandLine, &opt.netProfile)
	flag.Uint64Var(&opt.seed, "seed", 1, "base RNG seed (episode i uses seed+i)")
	flag.IntVar(&opt.ops, "ops", 0, "requests per episode (0 = sized to device capacity)")
	flag.BoolVar(&opt.metamorphic, "metamorphic", true, "run metamorphic invariant checks")
	flag.BoolVar(&opt.shrink, "shrink", true, "minimize the first failing episode on violation")
	flag.BoolVar(&opt.crashSweep, "crash-sweep", false, "crash a seeded workload at every Nth program/erase boundary and assert the durability contract after mount-time recovery")
	flag.Int64Var(&opt.crashEvery, "crash-every", 0, "crash-point stride in P/E boundaries (0 = about 12 points)")
	flag.StringVar(&opt.crashTraceOut, "crash-trace-out", "", "write the first failing crash point's minimized reproducer trace to this file")
	flag.BoolVar(&opt.crashStudy, "crash-study", false, "measure journal write amplification vs mount-time recovery cost across checkpoint intervals on the Fig 7a workload")
	opt.host.RegisterHost(flag.CommandLine)
	flag.Parse()
	if err := run(opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
