// Package timeseries records time-resolved telemetry from the simulator.
//
// A Sampler owns a set of named series and a sim.Periodic hook. The component
// that owns the simulated clock (the SSD in the replay path) advances the
// sampler as its clock moves; at every interval boundary the sampler reads
// each series' source function and appends one sample. Everything is keyed to
// simulated time — no wall clock anywhere — so two runs with the same seed
// produce byte-identical series.
//
// Buffers are bounded: when a run outlives capacity×interval, the sampler
// halves every buffer by merging adjacent pairs (mean for gauges, sum for
// everything else) and doubles its interval. A series therefore always covers
// the whole run at the finest resolution the buffer affords, and memory stays
// fixed regardless of run length.
//
// Because this simulator books work into the future at dispatch time (there
// is no global event loop replaying completions), cumulative busy counters
// read at a boundary can include work scheduled past it. Fractions are
// clamped to [0,1] at export; DESIGN.md calls this dispatch-horizon sampling.
package timeseries

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"oocnvm/internal/sim"
)

// Kind classifies how a series' raw source readings become exported values.
type Kind int

// Series kinds.
const (
	// KindGauge samples an instantaneous value (queue depth, write
	// amplification). Downsampling merges by mean.
	KindGauge Kind = iota
	// KindDelta samples the per-interval increase of a cumulative counter
	// (GC runs, fault events). Downsampling merges by sum.
	KindDelta
	// KindRate is a delta exported per simulated second (bytes -> B/s).
	KindRate
	// KindFraction is a delta of cumulative busy picoseconds normalized by
	// resource-count × interval: the busy fraction of a resource pool.
	// Clamped to [0,1] at export.
	KindFraction
	// KindRatio pairs two cumulative counters and exports the ratio of
	// their per-interval deltas (hits / accesses -> hit rate).
	KindRatio
)

// String names the kind for exports.
func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindDelta:
		return "delta"
	case KindRate:
		return "rate"
	case KindFraction:
		return "fraction"
	case KindRatio:
		return "ratio"
	}
	return "unknown"
}

// Source reads a series' raw value at a boundary instant. For delta-family
// kinds it must return a cumulative (non-decreasing between samples) total.
type Source func(at sim.Time) float64

type series struct {
	name    string
	kind    Kind
	f       Source
	den     Source  // KindRatio only: the denominator cumulative
	norm    float64 // KindFraction only: resource count
	last    float64 // previous cumulative reading (delta-family kinds)
	lastDen float64
	buf     []float64
	bufDen  []float64 // KindRatio only
}

// Sampler drives a set of series from the simulated clock. It is not safe
// for concurrent use: like the simulator core it belongs to one drive's
// single-threaded replay.
type Sampler struct {
	per      *sim.Periodic
	interval sim.Time
	capacity int
	count    int
	series   []*series
	byName   map[string]bool
}

// DefaultCapacity bounds each series buffer when NewSampler is given no
// explicit capacity. Power of two so halving stays exact.
const DefaultCapacity = 256

// NewSampler returns a sampler taking one sample per interval of simulated
// time, holding at most capacity samples per series before downsampling.
// capacity <= 0 selects DefaultCapacity; odd capacities round up to even so
// pairwise merging never strands a sample.
func NewSampler(interval sim.Time, capacity int) *Sampler {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if capacity < 2 {
		capacity = 2
	}
	if capacity%2 != 0 {
		capacity++
	}
	s := &Sampler{interval: interval, capacity: capacity, byName: make(map[string]bool)}
	s.per = sim.NewPeriodic(interval, s.sample)
	if s.interval < 1 {
		s.interval = 1
	}
	return s
}

// Interval reports the current sampling interval (it grows as the ring
// downsamples).
func (s *Sampler) Interval() sim.Time { return s.interval }

// Len reports the number of samples currently held per series.
func (s *Sampler) Len() int { return s.count }

// Advance moves the sampler's notion of simulated time forward, taking one
// sample per crossed interval boundary. Safe to call on every clock movement;
// a now before the next boundary returns immediately.
func (s *Sampler) Advance(now sim.Time) { s.per.Advance(now) }

// add registers a series. Duplicate names keep the first registration so a
// component wired twice (e.g. a cache reused across study runs) cannot
// corrupt the export with colliding rows.
func (s *Sampler) add(sr *series) {
	if s.byName[sr.name] {
		return
	}
	s.byName[sr.name] = true
	sr.buf = make([]float64, 0, s.capacity)
	if sr.kind == KindRatio {
		sr.bufDen = make([]float64, 0, s.capacity)
	}
	// A series registered after sampling started backfills zeros so every
	// buffer stays aligned to the same boundaries.
	for i := 0; i < s.count; i++ {
		sr.buf = append(sr.buf, 0)
		if sr.kind == KindRatio {
			sr.bufDen = append(sr.bufDen, 0)
		}
	}
	// Delta-family series baseline against the source's current total so a
	// component attached mid-run does not report its whole history as the
	// first interval's delta.
	switch sr.kind {
	case KindDelta, KindRate, KindFraction:
		sr.last = sr.f(s.per.Last())
	case KindRatio:
		sr.last = sr.f(s.per.Last())
		sr.lastDen = sr.den(s.per.Last())
	}
	s.series = append(s.series, sr)
}

// AddGauge registers an instantaneous-value series.
func (s *Sampler) AddGauge(name string, f Source) {
	s.add(&series{name: name, kind: KindGauge, f: f})
}

// AddDelta registers a per-interval-delta series over a cumulative counter.
func (s *Sampler) AddDelta(name string, f Source) {
	s.add(&series{name: name, kind: KindDelta, f: f})
}

// AddRate registers a per-second rate series over a cumulative counter.
func (s *Sampler) AddRate(name string, f Source) {
	s.add(&series{name: name, kind: KindRate, f: f})
}

// AddFraction registers a busy-fraction series over a cumulative
// busy-picoseconds counter spread across n parallel resources.
func (s *Sampler) AddFraction(name string, n float64, f Source) {
	if n < 1 {
		n = 1
	}
	s.add(&series{name: name, kind: KindFraction, f: f, norm: n})
}

// AddRatio registers a ratio-of-deltas series over two cumulative counters.
func (s *Sampler) AddRatio(name string, num, den Source) {
	s.add(&series{name: name, kind: KindRatio, f: num, den: den})
}

// sample is the Periodic callback: one reading per registered series.
func (s *Sampler) sample(at sim.Time) {
	for _, sr := range s.series {
		switch sr.kind {
		case KindGauge:
			sr.buf = append(sr.buf, sr.f(at))
		case KindRatio:
			cur, curDen := sr.f(at), sr.den(at)
			sr.buf = append(sr.buf, cur-sr.last)
			sr.bufDen = append(sr.bufDen, curDen-sr.lastDen)
			sr.last, sr.lastDen = cur, curDen
		default:
			cur := sr.f(at)
			sr.buf = append(sr.buf, cur-sr.last)
			sr.last = cur
		}
	}
	s.count++
	if s.count >= s.capacity {
		s.downsample()
	}
}

// downsample merges adjacent sample pairs and doubles the interval, keeping
// buffers at half capacity while still covering the whole run.
func (s *Sampler) downsample() {
	half := s.count / 2
	for _, sr := range s.series {
		merge(sr.buf, sr.kind == KindGauge)
		sr.buf = sr.buf[:half]
		if sr.kind == KindRatio {
			merge(sr.bufDen, false)
			sr.bufDen = sr.bufDen[:half]
		}
	}
	s.count = half
	s.interval *= 2
	s.per.SetInterval(s.interval)
}

// merge folds adjacent pairs of buf in place (mean or sum).
func merge(buf []float64, mean bool) {
	for i := 0; i+1 < len(buf); i += 2 {
		v := buf[i] + buf[i+1]
		if mean {
			v /= 2
		}
		buf[i/2] = v
	}
}

// Point is one exported sample: the boundary instant and the series value.
type Point struct {
	TPs   int64   `json:"t_ps"`
	Value float64 `json:"value"`
}

// Series is one exported series.
type Series struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// Dump is the full deterministic export: series sorted by name, one point
// per sample at the final (post-downsampling) resolution.
type Dump struct {
	IntervalPs int64    `json:"interval_ps"`
	Series     []Series `json:"series"`
}

// value converts a raw buffered sample into its exported value.
func (s *Sampler) value(sr *series, i int) float64 {
	v := sr.buf[i]
	switch sr.kind {
	case KindRate:
		return v / sim.Time(s.interval).Seconds()
	case KindFraction:
		f := v / (sr.norm * float64(s.interval))
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return f
	case KindRatio:
		if sr.bufDen[i] == 0 {
			return 0
		}
		return v / sr.bufDen[i]
	}
	return v
}

// Dump exports every series, sorted by name.
func (s *Sampler) Dump() Dump {
	d := Dump{IntervalPs: int64(s.interval), Series: make([]Series, 0, len(s.series))}
	for _, sr := range s.series {
		out := Series{Name: sr.name, Kind: sr.kind.String(), Points: make([]Point, s.count)}
		for i := 0; i < s.count; i++ {
			out.Points[i] = Point{
				TPs:   int64(s.interval) * int64(i+1),
				Value: s.value(sr, i),
			}
		}
		d.Series = append(d.Series, out)
	}
	sort.Slice(d.Series, func(i, j int) bool { return d.Series[i].Name < d.Series[j].Name })
	return d
}

// SeriesNames lists the registered series, sorted.
func (s *Sampler) SeriesNames() []string {
	names := make([]string, 0, len(s.series))
	for _, sr := range s.series {
		names = append(names, sr.name)
	}
	sort.Strings(names)
	return names
}

// WriteCSV writes every series as flat CSV (series,kind,t_ps,value), rows
// sorted by series name then time. Values use Go's shortest round-trip
// float formatting, so identical runs write identical bytes.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "series,kind,t_ps,value"); err != nil {
		return err
	}
	for _, sr := range s.Dump().Series {
		for _, p := range sr.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%s\n",
				sr.Name, sr.Kind, p.TPs, strconv.FormatFloat(p.Value, 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return nil
}
