package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a named monotonic (or at least additive) int64. Safe for
// concurrent use; handles obtained from a Registry may be cached and hit
// directly on hot paths.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add accumulates delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc accumulates one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// set overwrites the total. Unexported: counters are additive to callers;
// only the export path may mirror an externally-owned total (the tracer's
// span counts) without double-counting across repeated exports.
func (c *Counter) set(v int64) { c.v.Store(v) }

// Gauge is a named float64 whose last written value wins.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set records the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the last recorded value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a named collection of counters, gauges and histograms.
// Lookup is get-or-create; all methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero if absent.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero if absent.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it empty if absent.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// Absorb adds every metric of other into r: counter values add, gauges
// overwrite (other wins), histogram populations merge. Used to fold a
// subsystem's private registry (e.g. one nvm.Device's) into a run-level
// export registry.
func (r *Registry) Absorb(other *Registry) {
	if other == nil || other == r {
		return
	}
	other.mu.Lock()
	counters := make([]*Counter, 0, len(other.counters))
	for _, c := range other.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(other.gauges))
	for _, g := range other.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(other.hists))
	for _, h := range other.hists {
		hists = append(hists, h)
	}
	other.mu.Unlock()
	for _, c := range counters {
		r.Counter(c.name).Add(c.Value())
	}
	for _, g := range gauges {
		r.Gauge(g.name).Set(g.Value())
	}
	for _, h := range hists {
		r.Histogram(h.name).absorb(h)
	}
}

// CounterSnapshot is one counter's exported value.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's exported value.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is a deterministic point-in-time export of a registry: every
// section is sorted by name, so identical runs produce identical bytes.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make([]CounterSnapshot, 0, len(counters)),
		Gauges:     make([]GaugeSnapshot, 0, len(gauges)),
		Histograms: make([]HistogramSnapshot, 0, len(hists)),
	}
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.name, Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Value: g.Value()})
	}
	for _, h := range hists {
		s.Histograms = append(s.Histograms, h.Snapshot())
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteCSV writes the snapshot as flat CSV: one row per metric with the
// columns kind,name,value,count,sum_ps,min_ps,max_ps,p50_ps,p95_ps,p99_ps.
// Counter and gauge rows leave the histogram columns empty and vice versa.
func (r *Registry) WriteCSV(w io.Writer) error {
	s := r.Snapshot()
	if _, err := fmt.Fprintln(w, "kind,name,value,count,sum_ps,min_ps,max_ps,p50_ps,p95_ps,p99_ps"); err != nil {
		return err
	}
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter,%s,%d,,,,,,,\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge,%s,%g,,,,,,,\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "histogram,%s,,%d,%d,%d,%d,%d,%d,%d\n",
			h.Name, h.Count, h.SumPs, h.MinPs, h.MaxPs, h.P50Ps, h.P95Ps, h.P99Ps); err != nil {
			return err
		}
	}
	return nil
}
