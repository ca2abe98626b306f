// Package hostperf is the simulator watching its own cost. Where internal/obs
// measures *simulated* time (device latencies, channel occupancy), hostperf
// measures the *host* resources a run burns to produce those numbers: wall
// time, CPU time, heap allocations, GC work — broken down per run phase
// (trace build, each matrix cell, export).
//
// A phase Collector snapshots runtime.MemStats (plus getrusage CPU time where
// available) at phase boundaries, so a run emits a per-phase host-cost table
// next to its simulated-time results. The snapshots read process-wide
// counters, so a phase's delta belongs to it alone only while nothing else
// runs beside it: experiment.Matrix serializes its cells when given a
// collector. Per-layer host cost on the figure streams is bench/oocperf's
// job; ad-hoc allocation sites come from any CLI's -memprofile.
package hostperf

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// Snap is one instantaneous host-resource snapshot.
type Snap struct {
	Wall       time.Time
	CPU        time.Duration // process user+system time; 0 where unsupported
	HeapBytes  uint64        // live heap at the instant
	AllocObjs  uint64        // cumulative heap objects allocated
	AllocBytes uint64        // cumulative heap bytes allocated
	GCCycles   uint32        // completed GC cycles
	GCPause    time.Duration // cumulative stop-the-world pause
	Goroutines int
}

// TakeSnap reads the current host-resource state. It calls
// runtime.ReadMemStats (a brief stop-the-world), so it belongs at phase
// boundaries, not on per-request paths.
func TakeSnap() Snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Snap{
		Wall:       time.Now(),
		CPU:        cpuTime(),
		HeapBytes:  ms.HeapAlloc,
		AllocObjs:  ms.Mallocs,
		AllocBytes: ms.TotalAlloc,
		GCCycles:   ms.NumGC,
		GCPause:    time.Duration(ms.PauseTotalNs),
		Goroutines: runtime.NumGoroutine(),
	}
}

// PhaseCost is the host cost of one run phase (or of the whole run, for
// Summary.Total): the resource deltas between its begin and end snapshots.
type PhaseCost struct {
	Name       string        `json:"name"`
	Wall       time.Duration `json:"wall_ns"`
	CPU        time.Duration `json:"cpu_ns"`
	AllocObjs  uint64        `json:"alloc_objects"`
	AllocBytes uint64        `json:"alloc_bytes"`
	GCCycles   uint32        `json:"gc_cycles"`
	GCPause    time.Duration `json:"gc_pause_ns"`
	HeapBytes  uint64        `json:"heap_bytes"` // live heap at phase end
	Goroutines int           `json:"goroutines"` // at phase end
}

func delta(name string, begin, end Snap) PhaseCost {
	return PhaseCost{
		Name:       name,
		Wall:       end.Wall.Sub(begin.Wall),
		CPU:        end.CPU - begin.CPU,
		AllocObjs:  end.AllocObjs - begin.AllocObjs,
		AllocBytes: end.AllocBytes - begin.AllocBytes,
		GCCycles:   end.GCCycles - begin.GCCycles,
		GCPause:    end.GCPause - begin.GCPause,
		HeapBytes:  end.HeapBytes,
		Goroutines: end.Goroutines,
	}
}

// Collector accumulates the per-phase host costs of one run; Summary
// snapshots the run's totals. Phases may be recorded from any goroutine (the
// collector locks), but concurrent phases share the process-wide counters —
// drivers that want per-cell deltas run their cells one at a time
// (experiment.Matrix does this whenever Options.Host is set).
type Collector struct {
	mu     sync.Mutex
	start  Snap
	phases []PhaseCost
}

// NewCollector snapshots the baseline. Call Summary when the run is done.
func NewCollector() *Collector {
	return &Collector{start: TakeSnap()}
}

// Phase begins a named phase and returns the function that ends it:
//
//	done := host.Phase("cell CNL-UFS/TLC")
//	... work ...
//	done()
//
// Nil collectors are safe: (*Collector)(nil).Phase returns a no-op.
func (c *Collector) Phase(name string) (end func()) {
	if c == nil {
		return func() {}
	}
	begin := TakeSnap()
	return func() {
		cost := delta(name, begin, TakeSnap())
		c.mu.Lock()
		c.phases = append(c.phases, cost)
		c.mu.Unlock()
	}
}

// Summary is the run's host-performance report: the whole-run totals and the
// per-phase table.
type Summary struct {
	Total  PhaseCost   `json:"total"`
	Phases []PhaseCost `json:"phases,omitempty"`
}

// Summary computes the report for everything since NewCollector.
func (c *Collector) Summary() *Summary {
	if c == nil {
		return nil
	}
	end := TakeSnap()
	c.mu.Lock()
	phases := make([]PhaseCost, len(c.phases))
	copy(phases, c.phases)
	c.mu.Unlock()
	return &Summary{Total: delta("total", c.start, end), Phases: phases}
}

// FormatTable renders the per-phase host-cost table as aligned text.
func (s *Summary) FormatTable() string {
	var b strings.Builder
	b.WriteString("host performance (wall-clock resources of this process)\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "phase\twall\tcpu\tallocs\talloc-bytes\tgc\tpause\theap-end\n")
	for _, p := range s.Phases {
		writePhaseRow(w, p)
	}
	writePhaseRow(w, s.Total)
	w.Flush()
	return b.String()
}

func writePhaseRow(w io.Writer, p PhaseCost) {
	fmt.Fprintf(w, "%s\t%v\t%v\t%d\t%s\t%d\t%v\t%s\n",
		p.Name, p.Wall.Round(time.Microsecond), p.CPU.Round(time.Microsecond),
		p.AllocObjs, FormatBytes(p.AllocBytes), p.GCCycles,
		p.GCPause.Round(time.Microsecond), FormatBytes(p.HeapBytes))
}

// FormatBytes renders a byte count with a binary unit, one decimal, as the
// host-cost table and the HTML report show it.
func FormatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// WriteJSON emits the summary as indented JSON.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV emits the phase table, one row per phase plus the total, with a
// `section` column telling them apart.
func (s *Summary) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "section,name,wall_ns,cpu_ns,alloc_objects,alloc_bytes,gc_cycles,gc_pause_ns,heap_bytes"); err != nil {
		return err
	}
	row := func(section string, p PhaseCost) error {
		_, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d,%d,%d\n",
			section, csvEscape(p.Name), p.Wall.Nanoseconds(), p.CPU.Nanoseconds(),
			p.AllocObjs, p.AllocBytes, p.GCCycles, p.GCPause.Nanoseconds(), p.HeapBytes)
		return err
	}
	for _, p := range s.Phases {
		if err := row("phase", p); err != nil {
			return err
		}
	}
	return row("total", s.Total)
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
