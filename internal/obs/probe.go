package obs

import (
	"fmt"
	"io"
	"os"
	"strings"

	"oocnvm/internal/sim"
)

// Layer names used as Chrome trace "processes" and metric name prefixes.
// One name per major package of the stack, in descent order.
const (
	LayerFS           = "fs"
	LayerUFS          = "ufs"
	LayerSSD          = "ssd"
	LayerInterconnect = "interconnect"
	LayerNVM          = "nvm"
)

// Probe is another name for *Collector, kept because the benchmark's link
// wrapper (bench/oocperf) names SetProbe(obs.Probe).
type Probe = *Collector

// Collector is the probe every layer calls: spans land in Tr, metrics in
// Reg. Either may be nil to collect only the other. A nil *Collector means
// observability off: every method returns at once and allocates nothing.
// Safe for concurrent use.
type Collector struct {
	Reg *Registry
	Tr  *Tracer
}

// NewCollector returns a Collector with a fresh registry and tracer.
func NewCollector() *Collector {
	return &Collector{Reg: NewRegistry(), Tr: NewTracer()}
}

// Enabled reports whether spans or metrics are collected at all: false
// only on a nil collector. Use it to skip attribute or track-name
// construction on hot paths.
func (c *Collector) Enabled() bool { return c != nil }

// Span records one interval of simulated time on (layer, track) into the
// tracer.
func (c *Collector) Span(layer, track, name string, start, end sim.Time, attrs ...Attr) {
	if c != nil && c.Tr != nil {
		c.Tr.Span(layer, track, name, start, end, attrs...)
	}
}

// Count accumulates delta into the named registry counter.
func (c *Collector) Count(name string, delta int64) {
	if c != nil && c.Reg != nil {
		c.Reg.Counter(name).Add(delta)
	}
}

// Observe records v into the named registry latency histogram.
func (c *Collector) Observe(name string, v sim.Time) {
	if c != nil && c.Reg != nil {
		c.Reg.Histogram(name).Observe(v)
	}
}

// SetGauge records the named registry gauge's current value.
func (c *Collector) SetGauge(name string, v float64) {
	if c != nil && c.Reg != nil {
		c.Reg.Gauge(name).Set(v)
	}
}

// Counter returns the named registry counter's handle for per-page sites,
// registering the counter at zero; nil without a registry. Add and Inc on a
// nil handle do nothing.
func (c *Collector) Counter(name string) *Counter {
	if c == nil || c.Reg == nil {
		return nil
	}
	return c.Reg.Counter(name)
}

// Gauge returns the named registry gauge's handle, registering it; nil
// without a registry. Set on a nil handle does nothing.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil || c.Reg == nil {
		return nil
	}
	return c.Reg.Gauge(name)
}

// WriteTraceFile writes the tracer's Chrome trace JSON to path.
func (c *Collector) WriteTraceFile(path string) error {
	if c == nil || c.Tr == nil {
		return fmt.Errorf("obs: collector has no tracer")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Tr.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SyncTracerMetrics mirrors the tracer's span totals into the registry as
// obs.trace.spans / obs.trace.dropped_spans, so a truncated trace is
// detectable from the metrics export alone. Overwrite semantics: calling it
// before every export is safe and never double-counts.
func (c *Collector) SyncTracerMetrics() {
	if c == nil || c.Reg == nil || c.Tr == nil {
		return
	}
	c.Reg.Counter("obs.trace.spans").set(int64(c.Tr.Len()))
	c.Reg.Counter("obs.trace.dropped_spans").set(c.Tr.Dropped())
}

// WriteMetricsFile writes the registry snapshot to path: CSV when the path
// ends in ".csv", indented JSON otherwise. The tracer's span totals are
// synced into the registry first (SyncTracerMetrics).
func (c *Collector) WriteMetricsFile(path string) error {
	if c == nil || c.Reg == nil {
		return fmt.Errorf("obs: collector has no registry")
	}
	c.SyncTracerMetrics()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if strings.HasSuffix(path, ".csv") {
		werr = c.Reg.WriteCSV(f)
	} else {
		werr = c.Reg.WriteJSON(f)
	}
	if werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

// FormatStageTable renders the snapshot's latency histograms as the
// end-of-run per-stage breakdown table: where simulated time goes, stage by
// stage, as a request descends the stack.
func FormatStageTable(s Snapshot) string {
	if len(s.Histograms) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %10s %10s %10s %12s\n", "stage", "count", "p50", "p95", "p99", "total")
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "%-28s %10d %10v %10v %10v %12v\n",
			h.Name, h.Count, sim.Time(h.P50Ps), sim.Time(h.P95Ps), sim.Time(h.P99Ps), sim.Time(h.SumPs))
	}
	return b.String()
}

// WriteStageTable writes FormatStageTable to w with a heading, omitting
// everything when there are no histograms.
func WriteStageTable(w io.Writer, s Snapshot) {
	t := FormatStageTable(s)
	if t == "" {
		return
	}
	fmt.Fprintln(w, "per-stage latency breakdown:")
	fmt.Fprint(w, t)
}
