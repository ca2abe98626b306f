package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"oocnvm/internal/fault"
	"oocnvm/internal/ftl"
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
	// synthetic traffic cannot pollute the numbers). Safe to share across
	// Matrix's concurrent runs.
	Obs *obs.Collector
	// Fault is the reliability profile injected into the achieved run (the
	// media-capable remeasurement stays fault-free so "bandwidth remaining"
	// keeps its meaning). The zero profile disables injection entirely.
	Fault fault.Profile
	// RetentionDays ages the cells beyond the profile's own retention term.
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
	// NetProfile names the netfault degradation profile the commands that
	// model cluster-network staging (preload, checkpoint drain) apply to
	// it; "" or "none" is the clean fabric.
	NetProfile string
	// DurableCheckpointPages, when > 0, enables the FTL's durable-metadata
	// model (journal + checkpoints + OOB tags) with a mapping-table
	// checkpoint every N host-written pages. Zero leaves the model off, so
	// existing runs and their reports are byte-identical.
	DurableCheckpointPages int64
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
	blockOps, window, err := blockTrace(cfg, cell, opt)
	if err != nil {
		return Measurement{}, err
	}
	achieved, err := replay(cfg, cell, opt, blockOps, window, cfg.buildLink(), opt.Obs, true)
	if err != nil {
		return Measurement{}, err
	}
	m := Measurement{Config: cfg, Cell: cell, Achieved: achieved}
	if opt.MeasureRemaining {
		capable, err := replay(cfg, cell, opt, blockOps, window, interconnect.Infinite{}, nil, false)
		if err != nil {
			return Measurement{}, err
		}
		m.MediaCapableMBps = capable.MBps()
	}
	return m, nil
}

// BlockTrace exposes the device-level trace a configuration's software
// stack emits for the workload (with its in-flight window), so external
// studies — like the crash-point MTTR sweep — can drive the exact Figure 7a
// request stream through their own stacks.
func BlockTrace(cfg Config, cell nvm.CellType, opt Options) ([]trace.BlockOp, int64, error) {
	return blockTrace(cfg, cell, opt)
}

// blockTrace produces the device-level trace a configuration's software
// stack emits for the workload, along with the stack's in-flight window.
func blockTrace(cfg Config, cell nvm.CellType, opt Options) ([]trace.BlockOp, int64, error) {
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
	if opt.Obs != nil {
		obs.Instrument(fsys, opt.Obs)
	}
	return fsys.Transform(posix), fsys.ReadAhead(), nil
}

// replay drives the block trace through a freshly assembled SSD. When col is
// non-nil it receives the run's spans, and the device's private metrics
// registry is absorbed into it after the replay. Fault injection applies
// only when withFaults is set (the achieved run), never to the
// media-capable remeasurement.
func replay(cfg Config, cell nvm.CellType, opt Options, ops []trace.BlockOp, window int64, link nvm.Link, col *obs.Collector, withFaults bool) (ssd.Result, error) {
	cp := nvm.Params(cell)
	var translator ssd.Translator
	if cfg.Kind == FSUFS {
		translator = ssd.NewDirect(opt.Geometry, cp)
	} else {
		var dc ftl.DurableConfig
		if opt.DurableCheckpointPages > 0 {
			dc = ftl.DurableConfig{Enabled: true, CheckpointEveryPages: opt.DurableCheckpointPages}
		}
		f, err := ftl.New(opt.Geometry, cp, ftl.Config{Durable: dc})
		if err != nil {
			return ssd.Result{}, err
		}
		if err := f.Preload(opt.Workload.MatrixBytes); err != nil {
			return ssd.Result{}, fmt.Errorf("experiment: %s/%s: %w", cfg.Name, cell, err)
		}
		translator = f
	}
	sc := ssd.Config{
		Geometry:    opt.Geometry,
		Cell:        cp,
		Bus:         cfg.Bus,
		Link:        link,
		Translator:  translator,
		QueueDepth:  opt.QueueDepth,
		WindowBytes: window,
		Seed:        opt.Seed,
	}
	if col != nil {
		sc.Probe = col
	}
	if withFaults && opt.Sampler != nil {
		sc.Sampler = opt.Sampler
	}
	if withFaults && opt.Attrib != nil {
		sc.Attrib = opt.Attrib
	}
	if withFaults && opt.Fault.Enabled() {
		fc := nvm.FaultConfig(opt.Geometry, cp, opt.Fault, opt.Seed)
		fc.RetentionDays = opt.RetentionDays
		fc.PrecyclePE = opt.PrecyclePE
		inj, err := fault.New(fc)
		if err != nil {
			return ssd.Result{}, err
		}
		sc.Fault = inj
	}
	drive, err := ssd.New(sc)
	if err != nil {
		return ssd.Result{}, err
	}
	res := drive.Replay(ops)
	if col != nil {
		col.Reg.Absorb(drive.Dev.Registry())
	}
	return res, nil
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
	// exactly one cell. Results are unchanged (each cell is deterministic
	// and independent).
	if opt.Host != nil {
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
