// Package export is the shared observability flag plumbing of the CLIs.
// Every command takes the same observability flags (-trace-out,
// -metrics-out, -report-out, -sample-us, -attrib, -attrib-out, -attrib-top,
// -hostperf, -hostperf-out, -cpuprofile, -memprofile);
// this package registers them once, builds the collector/sampler/recorder
// set they imply, and writes every requested artifact the same way —
// instead of each main duplicating the logic.
package export

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"oocnvm/internal/obs"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/obs/hostperf"
	"oocnvm/internal/obs/report"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/sim"
)

// Flags holds the observability export options of one command invocation.
type Flags struct {
	// TraceOut writes a Chrome trace_event JSON file.
	TraceOut string
	// MetricsOut writes the metrics registry (JSON, or CSV with .csv suffix).
	MetricsOut string
	// ReportOut writes the self-contained HTML experiment report plus a CSV
	// of every sampled series next to it.
	ReportOut string
	// SampleUS is the telemetry sampling interval in simulated microseconds.
	SampleUS int64
	// Attrib prints the per-request latency-attribution breakdown table
	// (critical-path component ranking) on the command's output.
	Attrib bool
	// AttribOut writes the top-K slow-request exemplar anatomy as CSV.
	AttribOut string
	// AttribTop is the slow-request exemplar capacity (top-K).
	AttribTop int
	// HostPerf prints the per-phase host-cost table on the command's output
	// and feeds the HTML report's "Host performance" section. Turning it on
	// is a measurement mode: per-cell phases serialize the experiment
	// matrix.
	HostPerf bool
	// HostPerfOut writes the host-performance summary to a file (JSON, or
	// CSV with a .csv suffix). Implies host collection like HostPerf.
	HostPerfOut string
	// CPUProfile/MemProfile write runtime/pprof profiles of the process
	// (real compute, not simulated time) for the zero-alloc work.
	CPUProfile string
	MemProfile string
}

// DefaultSampleUS is the default sampling interval: fine enough to resolve
// individual large requests, and the sampler coarsens itself on long runs.
const DefaultSampleUS = 50

// Register installs the shared export flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write a Chrome trace_event JSON file (open in chrome://tracing or Perfetto)")
	fs.StringVar(&f.MetricsOut, "metrics-out", "",
		"write the metrics registry (JSON, or CSV with a .csv suffix)")
	fs.StringVar(&f.ReportOut, "report-out", "",
		"write a self-contained HTML experiment report (plus a .csv of every sampled series)")
	fs.Int64Var(&f.SampleUS, "sample-us", DefaultSampleUS,
		"telemetry sampling interval in simulated microseconds (report timelines)")
	fs.BoolVar(&f.Attrib, "attrib", false,
		"print the per-request latency attribution breakdown (critical-path components)")
	fs.StringVar(&f.AttribOut, "attrib-out", "",
		"write the top-K slow-request latency anatomy as CSV")
	fs.IntVar(&f.AttribTop, "attrib-top", attrib.DefaultTopK,
		"slow-request exemplar count kept for -attrib-out and report waterfalls")
	f.RegisterHost(fs)
	fs.StringVar(&f.CPUProfile, "cpuprofile", "",
		"write a runtime/pprof CPU profile of the process to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "",
		"write a runtime/pprof heap profile of the process to this file")
}

// RegisterHost installs just the -hostperf/-hostperf-out pair, for commands
// (like simcheck) that take no other observability export, so they don't
// grow a dozen dead flags. Register installs it too.
func (f *Flags) RegisterHost(fs *flag.FlagSet) {
	fs.BoolVar(&f.HostPerf, "hostperf", false,
		"print the per-phase host cost (wall, cpu, allocs, GC)")
	fs.StringVar(&f.HostPerfOut, "hostperf-out", "",
		"write the host-performance summary (JSON, or CSV with a .csv suffix)")
}

// RegisterNetProfile installs the shared -net-profile flag: the named
// netfault degradation profile applied to cluster-network transfers
// (preload staging, checkpoint drains) of the commands that model them.
// Registered separately from Flags so commands with no network path don't
// grow a dead flag.
func RegisterNetProfile(fs *flag.FlagSet, target *string) {
	fs.StringVar(target, "net-profile", "none",
		"network degradation profile for staging transfers (none, wan, lossy, congested, flaky, outage, blackout)")
}

// Enabled reports whether any export needing a metrics collector was
// requested.
func (f *Flags) Enabled() bool {
	return f.TraceOut != "" || f.MetricsOut != "" || f.ReportOut != "" ||
		f.Attrib || f.AttribOut != ""
}

// Collector returns a fresh collector when any export needs one, nil
// otherwise, so the stack runs unobserved unless asked. It carries a tracer
// only when -trace-out will write the spans.
func (f *Flags) Collector() *obs.Collector {
	if !f.Enabled() {
		return nil
	}
	col := &obs.Collector{Reg: obs.NewRegistry()}
	if f.TraceOut != "" {
		col.Tr = obs.NewTracer()
	}
	return col
}

// Sampler returns a fresh time-series sampler when a report was requested,
// nil otherwise (sampling off means zero overhead).
func (f *Flags) Sampler() *timeseries.Sampler {
	if f.ReportOut == "" {
		return nil
	}
	us := f.SampleUS
	if us <= 0 {
		us = DefaultSampleUS
	}
	return timeseries.NewSampler(sim.Time(us)*sim.Microsecond, 0)
}

// Host returns a fresh host-performance collector when host profiling was
// requested (-hostperf or -hostperf-out), nil otherwise. A nil collector's
// Phase is a no-op, so runs without the flags pay nothing.
func (f *Flags) Host() *hostperf.Collector {
	if !f.HostPerf && f.HostPerfOut == "" {
		return nil
	}
	return hostperf.NewCollector()
}

// Recorder returns a fresh latency-attribution recorder when attribution
// output was requested (-attrib, -attrib-out, or an HTML report, whose
// waterfall section it feeds), nil otherwise. When col is non-nil the
// recorder's per-component histograms are created in its registry.
func (f *Flags) Recorder(col *obs.Collector) *attrib.Recorder {
	if !f.Attrib && f.AttribOut == "" && f.ReportOut == "" {
		return nil
	}
	rec := attrib.NewRecorder(f.AttribTop)
	if col != nil {
		rec.BindRegistry(col.Reg)
	}
	return rec
}

// StartProfiles begins the requested runtime/pprof captures and returns a
// stop function that finishes them (ends the CPU profile, snapshots the
// heap). The stop function is safe to call when no profile was requested.
// Every command calls it before doing any work, so it is also where a
// negative -sample-us or -attrib-top is rejected; zero keeps its default.
func (f *Flags) StartProfiles() (stop func() error, err error) {
	if f.SampleUS < 0 {
		return nil, fmt.Errorf("-sample-us must not be negative, got %d", f.SampleUS)
	}
	if f.AttribTop < 0 {
		return nil, fmt.Errorf("-attrib-top must not be negative, got %d", f.AttribTop)
	}
	var cpuFile *os.File
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if f.MemProfile == "" {
			return nil
		}
		return WriteFile(f.MemProfile, func(w io.Writer) error {
			runtime.GC() // settle allocations so the heap profile is stable
			return pprof.Lookup("allocs").WriteTo(w, 0)
		})
	}, nil
}

// WriteFile creates path and fills it with write. The file is closed on
// every path; the first error from create, write or close is returned.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReportCSVPath derives the series-CSV path from the report path:
// report.html -> report.csv, anything else gets .csv appended.
func ReportCSVPath(reportOut string) string {
	if strings.HasSuffix(reportOut, ".html") {
		return strings.TrimSuffix(reportOut, ".html") + ".csv"
	}
	return reportOut + ".csv"
}

// Write emits every requested artifact: the per-stage latency table, the
// attribution breakdown and the host-cost tables on w, then the trace,
// metrics, attribution CSV, host-performance file, report HTML and report
// CSV files, each confirmed with one line on w. col, samp, rec and host may
// each be nil (that export is skipped); info feeds the report's header
// sections, the recorder's summary its waterfall, and the host collector's
// summary its "Host performance" section.
func (f *Flags) Write(w io.Writer, col *obs.Collector, samp *timeseries.Sampler, rec *attrib.Recorder, host *hostperf.Collector, info report.RunInfo) error {
	snap := obs.Snapshot{}
	if col != nil {
		col.SyncTracerMetrics()
		snap = col.Reg.Snapshot()
		obs.WriteStageTable(w, snap)
		if f.TraceOut != "" {
			if col.Tr == nil {
				return errors.New("obs: collector has no tracer")
			}
			if err := WriteFile(f.TraceOut, col.Tr.WriteChromeJSON); err != nil {
				return err
			}
			fmt.Fprintf(w, "trace written to %s (%d spans, %d dropped)\n",
				f.TraceOut, col.Tr.Len(), col.Tr.Dropped())
		}
		if out := f.MetricsOut; out != "" {
			write := col.Reg.WriteJSON
			if strings.HasSuffix(out, ".csv") {
				write = col.Reg.WriteCSV
			}
			if err := WriteFile(out, write); err != nil {
				return err
			}
			fmt.Fprintf(w, "metrics written to %s\n", out)
		}
	}
	var sum attrib.Summary
	if rec != nil {
		sum = rec.Summary()
		if info.Attrib == nil {
			info.Attrib = &sum
		}
		if f.Attrib {
			fmt.Fprint(w, sum.FormatTable())
		}
		if f.AttribOut != "" {
			if err := WriteFile(f.AttribOut, sum.WriteCSV); err != nil {
				return err
			}
			fmt.Fprintf(w, "attribution written to %s (%d exemplars)\n", f.AttribOut, len(sum.Exemplars))
		}
	}
	if host != nil {
		info.Host = host.Summary()
		if f.HostPerf {
			fmt.Fprint(w, info.Host.FormatTable())
		}
		if out := f.HostPerfOut; out != "" {
			write := info.Host.WriteJSON
			if strings.HasSuffix(out, ".csv") {
				write = info.Host.WriteCSV
			}
			if err := WriteFile(out, write); err != nil {
				return err
			}
			fmt.Fprintf(w, "host performance written to %s\n", out)
		}
	}
	if f.ReportOut != "" {
		dump := timeseries.Dump{}
		if samp != nil {
			dump = samp.Dump()
		}
		if err := WriteFile(f.ReportOut, func(hw io.Writer) error {
			return report.WriteHTML(hw, info, snap, dump)
		}); err != nil {
			return err
		}
		csvPath := ReportCSVPath(f.ReportOut)
		if err := WriteFile(csvPath, func(cw io.Writer) error {
			if samp != nil {
				return samp.WriteCSV(cw)
			}
			_, err := fmt.Fprintln(cw, "series,kind,t_ps,value")
			return err
		}); err != nil {
			return err
		}
		n := 0
		if samp != nil {
			n = len(samp.SeriesNames())
		}
		fmt.Fprintf(w, "report written to %s (%d series, csv %s)\n", f.ReportOut, n, csvPath)
	}
	return nil
}
