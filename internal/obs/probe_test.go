package obs

import (
	"testing"

	"oocnvm/internal/sim"
)

func TestNilProbeIsFree(t *testing.T) {
	var p *Collector
	if p.Enabled() {
		t.Fatal("nil probe reports enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.Span(LayerNVM, "ch0/die0", "sense", 0, sim.Microsecond)
		p.Count("nvm.reads", 1)
		p.Observe("nvm.device.latency", sim.Microsecond)
		p.SetGauge("nvm.bw", 1.0)
		p.Counter("nvm.reads").Inc()
		p.Gauge("nvm.bw").Set(1.0)
	})
	if allocs != 0 {
		t.Fatalf("nil probe allocates %.1f per run", allocs)
	}
}

func TestCollectorRoutes(t *testing.T) {
	c := NewCollector()
	if !c.Enabled() {
		t.Fatal("collector disabled")
	}
	c.Count("x.ops", 3)
	c.Observe("x.lat", 2*sim.Microsecond)
	c.SetGauge("x.bw", 7.5)
	c.Span(LayerSSD, "queue", "R", 0, sim.Microsecond, Attr{Key: "size", Value: int64(4096)})
	if c.Reg.Counter("x.ops").Value() != 3 {
		t.Fatal("count not routed")
	}
	if c.Reg.Histogram("x.lat").Count() != 1 {
		t.Fatal("observe not routed")
	}
	if c.Reg.Gauge("x.bw").Value() != 7.5 {
		t.Fatal("gauge not routed")
	}
	if c.Tr.Len() != 1 {
		t.Fatal("span not routed")
	}
}

func TestCollectorNilPartsTolerated(t *testing.T) {
	c := &Collector{}
	c.Count("x", 1)
	c.Observe("x", 1)
	c.SetGauge("x", 1)
	c.Span(LayerSSD, "q", "R", 0, 1)
	if err := c.WriteTraceFile("/dev/null"); err == nil {
		t.Fatal("nil tracer write did not error")
	}
	if err := c.WriteMetricsFile("/dev/null"); err == nil {
		t.Fatal("nil registry write did not error")
	}
	var off *Collector
	off.SyncTracerMetrics()
	if off.WriteTraceFile("/dev/null") == nil || off.WriteMetricsFile("/dev/null") == nil {
		t.Fatal("nil collector write did not error")
	}
}

func TestSyncTracerMetrics(t *testing.T) {
	c := NewCollector()
	c.Tr.SetLimit(2)
	for i := 0; i < 5; i++ {
		c.Span(LayerSSD, "t", "op", sim.Time(i), sim.Time(i+1))
	}
	// Syncing twice must not double-count: the counters mirror totals.
	c.SyncTracerMetrics()
	c.SyncTracerMetrics()
	if got := c.Reg.Counter("obs.trace.spans").Value(); got != 2 {
		t.Fatalf("obs.trace.spans = %d, want 2", got)
	}
	if got := c.Reg.Counter("obs.trace.dropped_spans").Value(); got != 3 {
		t.Fatalf("obs.trace.dropped_spans = %d, want 3", got)
	}
	// Later drops keep flowing through on the next sync: the counters track
	// the tracer's live totals, they are not a one-shot snapshot.
	c.Span(LayerSSD, "t", "op", 5, 6)
	c.SyncTracerMetrics()
	if got := c.Reg.Counter("obs.trace.dropped_spans").Value(); got != 4 {
		t.Fatalf("obs.trace.dropped_spans after more drops = %d, want 4", got)
	}
	// Nil parts tolerated.
	(&Collector{Reg: NewRegistry()}).SyncTracerMetrics()
	(&Collector{Tr: NewTracer()}).SyncTracerMetrics()
}
