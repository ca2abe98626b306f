package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"oocnvm/internal/fault"
	"oocnvm/internal/interconnect"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/obs/hostperf"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/ooc"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

// Options parameterize an evaluation run.
type Options struct {
	Workload   ooc.Workload
	Geometry   nvm.Geometry
	QueueDepth int
	Seed       uint64
	// MeasureRemaining additionally runs each configuration with an
	// infinitely fast host path to measure what the media could have
	// delivered under the same access pattern (Figures 7b and 8b).
	MeasureRemaining bool
	// Obs, when non-nil, collects metrics and trace spans from the achieved
	// run (the infinite-host-path remeasurement is never probed, so its
	// synthetic traffic cannot pollute the numbers). It is safe for
	// concurrent use but not deterministic under it: a gauge keeps the
	// last value written, and a tracer keeps the first spans it is handed
	// and orders ties by arrival, so concurrent cells would change the
	// exported bytes from run to run. Matrix therefore runs its cells one
	// at a time when Obs is set.
	Obs *obs.Collector
	// Fault is the reliability profile injected into the achieved run (the
	// media-capable remeasurement stays fault-free so "bandwidth remaining"
	// keeps its meaning). The zero profile disables injection entirely.
	Fault fault.Profile
	// RetentionDays ages the cells beyond the profile's own retention term.
	// Like PrecyclePE and Fault.SpareBlocks, it needs a Fault profile that
	// injects faults.
	RetentionDays float64
	// PrecyclePE adds this many program/erase cycles of wear to every block
	// before the run, on top of the profile's PrecycleFrac.
	PrecyclePE int64
	// Sampler, when non-nil, records time-resolved telemetry from the
	// achieved run. Unlike Obs it is NOT safe to share across concurrent
	// runs (the sampler belongs to one drive's clock), so Matrix drops it;
	// attach it only to a dedicated single Run.
	Sampler *timeseries.Sampler
	// Attrib, when non-nil, records per-request latency attribution from
	// the achieved run (never the infinite-host remeasurement, whose
	// synthetic host path has no anatomy worth decomposing). Like Sampler
	// it is single-clock state, so Matrix drops it.
	Attrib *attrib.Recorder
	// DurableCheckpointPages, when > 0, enables the FTL's durable-metadata
	// model (journal + checkpoints + OOB tags) with a mapping-table
	// checkpoint every N host-written pages. Zero leaves the model off, so
	// existing runs and their reports are byte-identical.
	DurableCheckpointPages int64
	// Crash, when non-nil, arms a deterministic power cut on the achieved
	// run's fault injector, which the drive then gets even under a profile
	// that injects nothing. The zero plan never fires but counts the run's
	// program/erase boundaries.
	Crash *fault.CrashPlan
	// Host, when non-nil, records each evaluation cell as one host-perf
	// phase (wall time, CPU, allocations, GC). This is a measurement mode:
	// phase deltas read process-wide counters, so Matrix runs its cells one
	// at a time whenever Host is set.
	Host *hostperf.Collector
	// Workers caps Matrix's worker-pool size; zero or negative selects
	// runtime.NumCPU. Results are independent of the setting (every cell is
	// deterministic and isolated) — the knob exists so identity tests can
	// prove exactly that at several concurrency levels.
	Workers int

	// posix caches the workload's application-level trace across Matrix
	// cells. The trace depends only on the workload and is consumed
	// read-only by every file-system transform, so the matrix generates it
	// once instead of once per cell.
	posix []trace.PosixOp
}

// DefaultOptions returns the evaluation defaults: the standard OoC workload
// on the paper's 8-channel/64-package/128-die geometry.
func DefaultOptions() Options {
	return Options{
		Workload:         ooc.DefaultWorkload(),
		Geometry:         nvm.PaperGeometry(),
		QueueDepth:       ssd.DefaultQueueDepth,
		Seed:             42,
		MeasureRemaining: true,
	}
}

// TestOptions returns a reduced workload for fast unit/shape tests.
func TestOptions() Options {
	o := DefaultOptions()
	o.Workload = ooc.Workload{MatrixBytes: 96 << 20, PanelBytes: 8 << 20, Applications: 2}
	return o
}

// Measurement is the result of one (configuration, NVM type) cell of the
// evaluation matrix.
type Measurement struct {
	Config Config
	Cell   nvm.CellType
	// Achieved is the real run.
	Achieved ssd.Result
	// MediaCapableMBps is the bandwidth of the infinite-host-path run; zero
	// when not measured.
	MediaCapableMBps float64
}

// AchievedMBps is the achieved application bandwidth in MB/s.
func (m Measurement) AchievedMBps() float64 { return m.Achieved.MBps() }

// RemainingMBps is the paper's "bandwidth remaining" metric: what the media
// could still have delivered under this access pattern, beyond what the
// full stack achieved.
func (m Measurement) RemainingMBps() float64 {
	r := m.MediaCapableMBps - m.AchievedMBps()
	if r < 0 {
		return 0
	}
	return r
}

// Run evaluates one configuration with one NVM type.
func Run(cfg Config, cell nvm.CellType, opt Options) (Measurement, error) {
	if opt.Host != nil {
		defer opt.Host.Phase(fmt.Sprintf("cell %s/%s", cfg.Name, cell))()
	}
	blockOps, window, err := BlockTrace(cfg, cell, opt)
	if err != nil {
		return Measurement{}, err
	}
	achieved, err := replay(cfg, cell, opt, blockOps, window, cfg.BuildLink())
	if err != nil {
		return Measurement{}, err
	}
	m := Measurement{Config: cfg, Cell: cell, Achieved: achieved}
	if opt.MeasureRemaining {
		// The media-capable remeasurement runs unobserved and fault-free, so
		// its synthetic host path neither pollutes the metrics nor loses
		// "bandwidth remaining" to injected errors.
		bare := opt
		bare.Obs, bare.Sampler, bare.Attrib = nil, nil, nil
		bare.Fault, bare.RetentionDays, bare.PrecyclePE, bare.Crash = fault.Profile{}, 0, 0, nil
		capable, err := replay(cfg, cell, bare, blockOps, window, interconnect.Infinite{})
		if err != nil {
			return Measurement{}, err
		}
		m.MediaCapableMBps = capable.MBps()
	}
	return m, nil
}

// validate rejects option values that would silently change the answer:
// negative wear or age make the fault model fresher than a new drive, a
// negative checkpoint interval would run with durability off, and aging or
// a spare budget mean nothing to a profile that injects no faults.
func (o *Options) validate() error {
	switch {
	case o.RetentionDays < 0:
		return fmt.Errorf("experiment: negative RetentionDays %v", o.RetentionDays)
	case o.PrecyclePE < 0:
		return fmt.Errorf("experiment: negative PrecyclePE %d", o.PrecyclePE)
	case o.DurableCheckpointPages < 0:
		return fmt.Errorf("experiment: negative DurableCheckpointPages %d", o.DurableCheckpointPages)
	case o.Fault.SpareBlocks < 0:
		return fmt.Errorf("experiment: negative Fault.SpareBlocks %d", o.Fault.SpareBlocks)
	case !o.Fault.Enabled() && (o.RetentionDays > 0 || o.PrecyclePE > 0 || o.Fault.SpareBlocks > 0):
		return fmt.Errorf("experiment: RetentionDays %v, PrecyclePE %d and Fault.SpareBlocks %d need a Fault profile that injects faults",
			o.RetentionDays, o.PrecyclePE, o.Fault.SpareBlocks)
	}
	return nil
}

// BlockTrace produces the device-level trace a configuration's software
// stack emits for the workload, along with the stack's in-flight window.
// Run replays it; a study that drives the drive request by request, like
// the crash-recovery study, replays the same stream.
func BlockTrace(cfg Config, cell nvm.CellType, opt Options) ([]trace.BlockOp, int64, error) {
	posix := opt.posix
	if posix == nil {
		var err error
		posix, err = opt.Workload.PosixTrace()
		if err != nil {
			return nil, 0, err
		}
	}
	cp := nvm.Params(cell)
	capacity := opt.Geometry.Capacity(cp)
	fsys, err := cfg.buildFS(capacity, opt.Seed)
	if err != nil {
		return nil, 0, err
	}
	fsys.SetProbe(opt.Obs)
	return fsys.Transform(posix), fsys.ReadAhead(), nil
}

// replay drives the block trace through a freshly assembled drive on the
// given host link and closes it out.
func replay(cfg Config, cell nvm.CellType, opt Options, ops []trace.BlockOp, window int64, link nvm.Link) (ssd.Result, error) {
	tr, err := Translator(cfg, cell, opt)
	if err != nil {
		return ssd.Result{}, err
	}
	d, err := assemble(cfg, cell, tr, opt, window, link)
	if err != nil {
		return ssd.Result{}, err
	}
	return d.Replay(ops)
}

// Matrix evaluates every (configuration, cell) pair concurrently and returns
// measurements in (config-major, cell-minor) order.
func Matrix(configs []Config, cells []nvm.CellType, opt Options) ([]Measurement, error) {
	// A sampler or attribution recorder is single-clock state; concurrent
	// cells would race on it and interleave unrelated runs into one
	// timeline. Matrix measurements are aggregate-only.
	opt.Sampler = nil
	opt.Attrib = nil
	if opt.posix == nil {
		posix, err := opt.Workload.PosixTrace()
		if err != nil {
			return nil, err
		}
		opt.posix = posix
	}
	type job struct{ ci, ni int }
	out := make([]Measurement, len(configs)*len(cells))
	errs := make([]error, len(out))
	jobs := make(chan job)
	var wg sync.WaitGroup
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(out) {
		workers = len(out)
	}
	// Host-perf phases are deltas of process-wide counters; running cells
	// one at a time keeps every phase's resource delta attributable to
	// exactly one cell. A shared collector's gauges and kept spans depend on
	// the order cells write them, so an observed matrix runs serially too.
	// Results are unchanged (each cell is deterministic and independent).
	if opt.Host != nil || opt.Obs != nil {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				idx := j.ci*len(cells) + j.ni
				out[idx], errs[idx] = Run(configs[j.ci], cells[j.ni], opt)
			}
		}()
	}
	for ci := range configs {
		for ni := range cells {
			jobs <- job{ci, ni}
		}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Lookup finds the measurement for a configuration name and cell type.
func Lookup(ms []Measurement, name string, cell nvm.CellType) (Measurement, error) {
	for _, m := range ms {
		if m.Config.Name == name && m.Cell == cell {
			return m, nil
		}
	}
	return Measurement{}, fmt.Errorf("experiment: no measurement for %s/%s", name, cell)
}
