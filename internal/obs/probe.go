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

// Probe is the hook instrumented code calls. Implementations must tolerate
// concurrent use. The Nop implementation makes every method free; hot paths
// should guard allocation-bearing calls (attr construction, fmt) behind
// Enabled.
type Probe interface {
	// Enabled reports whether spans/metrics are actually collected; use it
	// to skip attribute or track-name construction on hot paths.
	Enabled() bool
	// Span records one interval of simulated time on (layer, track).
	Span(layer, track, name string, start, end sim.Time, attrs ...Attr)
	// Count accumulates delta into the named counter.
	Count(name string, delta int64)
	// Observe records v into the named latency histogram.
	Observe(name string, v sim.Time)
	// SetGauge records the named gauge's current value.
	SetGauge(name string, v float64)
	// Counter returns the named counter's handle for per-page sites,
	// registering the counter at zero; nil when nothing is collected. Add
	// and Inc on a nil handle do nothing.
	Counter(name string) *Counter
	// Gauge returns the named gauge's handle, registering it; nil when
	// nothing is collected. Set on a nil handle does nothing.
	Gauge(name string) *Gauge
}

// Nop is the default probe: every call is a no-op and allocates nothing.
type Nop struct{}

// Enabled reports false.
func (Nop) Enabled() bool { return false }

// Span does nothing.
func (Nop) Span(layer, track, name string, start, end sim.Time, attrs ...Attr) {}

// Count does nothing.
func (Nop) Count(name string, delta int64) {}

// Observe does nothing.
func (Nop) Observe(name string, v sim.Time) {}

// SetGauge does nothing.
func (Nop) SetGauge(name string, v float64) {}

// Counter returns nil.
func (Nop) Counter(name string) *Counter { return nil }

// Gauge returns nil.
func (Nop) Gauge(name string) *Gauge { return nil }

// OrNop returns p, or a Nop probe when p is nil, so layers can hold a Probe
// field that is always safe to call.
func OrNop(p Probe) Probe {
	if p == nil {
		return Nop{}
	}
	return p
}

// Collector is a working Probe: spans land in Tr, metrics in Reg. Either
// may be nil to collect only the other.
type Collector struct {
	Reg *Registry
	Tr  *Tracer
}

// NewCollector returns a Collector with a fresh registry and tracer.
func NewCollector() *Collector {
	return &Collector{Reg: NewRegistry(), Tr: NewTracer()}
}

// Enabled reports true.
func (c *Collector) Enabled() bool { return true }

// Span records the interval into the tracer.
func (c *Collector) Span(layer, track, name string, start, end sim.Time, attrs ...Attr) {
	if c.Tr != nil {
		c.Tr.Span(layer, track, name, start, end, attrs...)
	}
}

// Count accumulates into the registry counter.
func (c *Collector) Count(name string, delta int64) {
	if c.Reg != nil {
		c.Reg.Counter(name).Add(delta)
	}
}

// Observe records into the registry histogram.
func (c *Collector) Observe(name string, v sim.Time) {
	if c.Reg != nil {
		c.Reg.Histogram(name).Observe(v)
	}
}

// SetGauge records into the registry gauge.
func (c *Collector) SetGauge(name string, v float64) {
	if c.Reg != nil {
		c.Reg.Gauge(name).Set(v)
	}
}

// Counter returns the registry counter, nil without a registry.
func (c *Collector) Counter(name string) *Counter {
	if c.Reg == nil {
		return nil
	}
	return c.Reg.Counter(name)
}

// Gauge returns the registry gauge, nil without a registry.
func (c *Collector) Gauge(name string) *Gauge {
	if c.Reg == nil {
		return nil
	}
	return c.Reg.Gauge(name)
}

// WriteTraceFile writes the tracer's Chrome trace JSON to path.
func (c *Collector) WriteTraceFile(path string) error {
	if c.Tr == nil {
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
	if c.Reg == nil || c.Tr == nil {
		return
	}
	c.Reg.Counter("obs.trace.spans").set(int64(c.Tr.Len()))
	c.Reg.Counter("obs.trace.dropped_spans").set(c.Tr.Dropped())
}

// WriteMetricsFile writes the registry snapshot to path: CSV when the path
// ends in ".csv", indented JSON otherwise. The tracer's span totals are
// synced into the registry first (SyncTracerMetrics).
func (c *Collector) WriteMetricsFile(path string) error {
	if c.Reg == nil {
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

// Instrument attaches p to x when x supports probing (exposes
// SetProbe(Probe)), reporting whether it did. It lets call sites wire
// probes through interface values (fs.FileSystem, nvm.Link,
// ssd.Translator) without import cycles or type switches.
func Instrument(x any, p Probe) bool {
	s, ok := x.(interface{ SetProbe(Probe) })
	if !ok {
		return false
	}
	s.SetProbe(p)
	return true
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
