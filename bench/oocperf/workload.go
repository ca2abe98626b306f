package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	"oocnvm/internal/check"
	"oocnvm/internal/experiment"
	"oocnvm/internal/fault"
	"oocnvm/internal/ftl"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/obs/report"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/sim"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

// workload is one benchmark input: a set of evaluation cells and the
// options every pass runs them with. The seed is the only thing a run
// varies.
type workload struct {
	name    string
	why     string
	configs []experiment.Config
	cells   []nvm.CellType
	tune    func(*experiment.Options)
	// observed attaches a metrics collector, an attribution recorder and a
	// telemetry sampler to every pass and renders the Chrome trace, HTML
	// report and attribution CSV after it: what replay -attrib -report-out
	// -trace-out costs.
	observed bool
}

// attribTopK and sampleInterval are the observed workload's recorder and
// sampler settings.
const (
	attribTopK     = 16
	sampleInterval = 100 * sim.Microsecond
)

func workloads() []workload {
	ext4 := []experiment.Config{mustConfig("CNL-EXT4")}
	tlc := []nvm.CellType{nvm.TLC}
	return []workload{
		{
			name:    "fig7a-fs-matrix",
			why:     "Figure 7a: eight FS profiles split panels into ~618k small requests, so per-request FTL lookup, Submit bookkeeping and nvm scheduling dominate",
			configs: experiment.FileSystemConfigs(),
			cells:   nvm.CellTypes,
		},
		{
			name:    "fig8-device-ladder",
			why:     "Figure 8: UFS keeps 8 MiB panels whole (4,096 requests, 15.7M pages), so per-page nvm execution, utilization coverage and link booking dominate",
			configs: experiment.DeviceConfigs(),
			cells:   nvm.CellTypes,
		},
		{
			name:    "write-gc-durable",
			why:     "the only workload with writes: a 68%-full drive runs FTL GC relocation, journal and checkpoints, and every read of its worn cells needs ECC correction",
			configs: ext4,
			cells:   tlc,
			tune: func(o *experiment.Options) {
				o.Workload.Applications = 8
				o.Workload.PsiBytes = 256 << 20
				o.Geometry.BlocksPerPlane = 6
				o.DurableCheckpointPages = 1024
				// Worn cells, so every read needs ECC correction, but no
				// program or erase failures: with them almost every seed
				// grows a bad superblock the six-superblock drive cannot
				// retire, goes read-only and rejects the rest of the writes.
				o.Fault = mustProfile("worn")
				o.Fault.ProgramFailProb, o.Fault.EraseFailProb = 0, 0
			},
		},
		{
			name:     "observed-replay",
			why:      "replay with -attrib -report-out -trace-out: the obs, attrib, timeseries and report layers do most of the work here and none elsewhere",
			configs:  ext4,
			cells:    tlc,
			observed: true,
		},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func mustConfig(name string) experiment.Config {
	c, err := experiment.FindConfig(name)
	if err != nil {
		panic(err)
	}
	return c
}

func mustProfile(name string) fault.Profile {
	p, err := fault.ForName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// options returns the workload's evaluation options for one seed: the
// oocbench defaults without the media-capable remeasurement.
func (w workload) options(seed uint64) experiment.Options {
	o := experiment.DefaultOptions()
	o.MeasureRemaining = false
	o.Seed = seed
	o.Workers = min(2, runtime.NumCPU())
	if w.tune != nil {
		w.tune(&o)
	}
	return o
}

// cell is one (configuration, cell type) pair of a workload.
type cell struct {
	cfg experiment.Config
	typ nvm.CellType
}

func (c cell) String() string { return c.cfg.Name + "/" + c.typ.String() }

// cellList returns the workload's cells in matrix order (config-major).
func (w workload) cellList() []cell {
	var out []cell
	for _, cfg := range w.configs {
		for _, t := range w.cells {
			out = append(out, cell{cfg, t})
		}
	}
	return out
}

// matrix reports whether passes go through experiment.Matrix (several
// cells) rather than experiment.Run (one cell).
func (w workload) matrix() bool { return len(w.configs)*len(w.cells) > 1 }

// passWorkers is how many cells a pass runs at once.
func (w workload) passWorkers(opt experiment.Options) int {
	if w.matrix() {
		return opt.Workers
	}
	return 1
}

// observers are the observability attachments of one observed run.
type observers struct {
	col  *obs.Collector
	samp *timeseries.Sampler
	rec  *attrib.Recorder
}

func newObservers() observers {
	o := observers{
		col:  obs.NewCollector(),
		samp: timeseries.NewSampler(sampleInterval, 0),
		rec:  attrib.NewRecorder(attribTopK),
	}
	o.rec.BindRegistry(o.col.Reg)
	return o
}

// render writes the artifacts replay -trace-out -report-out -attrib-out
// writes (Chrome trace, HTML report, attribution CSV) into io.Discard.
func (o observers) render(title string) error {
	o.col.SyncTracerMetrics()
	if err := o.col.Tr.WriteChromeJSON(io.Discard); err != nil {
		return err
	}
	sum := o.rec.Summary()
	if err := report.WriteHTML(io.Discard, report.RunInfo{Title: title, Attrib: &sum}, o.col.Reg.Snapshot(), o.samp.Dump()); err != nil {
		return err
	}
	return sum.WriteCSV(io.Discard)
}

// passOutput is what one untraced pass produced.
type passOutput struct {
	results []ssd.Result // matrix order
	// attribViolations counts attribution-conservation violations of an
	// observed pass.
	attribViolations int
}

// runPass runs every cell of the workload once through the public entry
// points oocbench uses.
func (w workload) runPass(opt experiment.Options) (passOutput, error) {
	if w.matrix() {
		ms, err := experiment.Matrix(w.configs, w.cells, opt)
		if err != nil {
			return passOutput{}, err
		}
		out := passOutput{results: make([]ssd.Result, len(ms))}
		for i, m := range ms {
			out.results[i] = m.Achieved
		}
		return out, nil
	}
	c := w.cellList()[0]
	var o observers
	if w.observed {
		o = newObservers()
		opt.Obs, opt.Sampler, opt.Attrib = o.col, o.samp, o.rec
	}
	m, err := experiment.Run(c.cfg, c.typ, opt)
	if err != nil {
		return passOutput{}, err
	}
	out := passOutput{results: []ssd.Result{m.Achieved}}
	if w.observed {
		if err := o.render(c.String()); err != nil {
			return passOutput{}, err
		}
		out.attribViolations = len(check.CheckAttribution(o.rec.Summary()))
	}
	return out, nil
}

// stack is one assembled cell: the drive plus the parts the traced phase
// and the tests read back.
type stack struct {
	drive *ssd.SSD
	trans ssd.Translator // as handed to ssd.New, wrapper included
	link  nvm.Link       // as handed to ssd.New, wrapper included
	ftl   *ftl.FTL       // nil on Direct (UFS) cells
	obs   observers
}

// stackParts selects the optional pieces of a stack.
type stackParts struct {
	timer    *callTimer   // non-nil: time every translator call
	log      *transferLog // non-nil: record every link transfer
	faults   bool
	observed bool
}

// build assembles a cell's drive from public constructors the way
// experiment.Run and cmd/replay do, without submitting a request.
func build(c cell, opt experiment.Options, window int64, p stackParts) (stack, error) {
	cp := nvm.Params(c.typ)
	var st stack
	var tr ssd.Translator
	if c.cfg.Kind == experiment.FSUFS {
		tr = ssd.NewDirect(opt.Geometry, cp)
	} else {
		var dc ftl.DurableConfig
		if opt.DurableCheckpointPages > 0 {
			dc = ftl.DurableConfig{Enabled: true, CheckpointEveryPages: opt.DurableCheckpointPages}
		}
		f, err := ftl.New(opt.Geometry, cp, ftl.Config{Durable: dc})
		if err != nil {
			return stack{}, err
		}
		if err := f.Preload(opt.Workload.MatrixBytes); err != nil {
			return stack{}, fmt.Errorf("%s: %w", c, err)
		}
		st.ftl, tr = f, f
	}
	if p.timer != nil {
		var err error
		if tr, err = timeTranslator(tr, p.timer); err != nil {
			return stack{}, err
		}
	}
	link := c.cfg.BuildLink()
	if p.log != nil {
		var err error
		if link, err = recordLink(link, p.log); err != nil {
			return stack{}, err
		}
	}
	st.trans, st.link = tr, link
	sc := ssd.Config{
		Geometry:    opt.Geometry,
		Cell:        cp,
		Bus:         c.cfg.Bus,
		Link:        link,
		Translator:  tr,
		QueueDepth:  opt.QueueDepth,
		WindowBytes: window,
		Seed:        opt.Seed,
	}
	if p.faults && opt.Fault.Enabled() {
		fc := nvm.FaultConfig(opt.Geometry, cp, opt.Fault, opt.Seed)
		fc.RetentionDays = opt.RetentionDays
		fc.PrecyclePE = opt.PrecyclePE
		inj, err := fault.New(fc)
		if err != nil {
			return stack{}, err
		}
		sc.Fault = inj
	}
	if p.observed {
		st.obs = newObservers()
		sc.Probe, sc.Sampler, sc.Attrib = st.obs.col, st.obs.samp, st.obs.rec
	}
	drive, err := ssd.New(sc)
	if err != nil {
		return stack{}, err
	}
	st.drive = drive
	return st, nil
}

// finish snapshots the drive's result and, on an observed stack, folds the
// device registry into the collector as experiment.Run does.
func (st stack) finish() ssd.Result {
	res := st.drive.Finish()
	if st.obs.col != nil {
		st.obs.col.Reg.Absorb(st.drive.Dev.Registry())
	}
	return res
}

// setupOnce builds every cell of the workload once (block trace,
// translator, fault injector, drive) and discards it.
func (w workload) setupOnce(opt experiment.Options) error {
	for _, c := range w.cellList() {
		_, window, err := experiment.BlockTrace(c.cfg, c.typ, opt)
		if err != nil {
			return err
		}
		if _, err := build(c, opt, window, stackParts{faults: true}); err != nil {
			return err
		}
	}
	return nil
}

// checkCell returns why a cell-run's result is wrong, or nil: it must stay
// inside the configuration's analytical envelope and equal the reference
// result of the same cell.
func checkCell(c cell, opt experiment.Options, res, ref ssd.Result) []string {
	var bad []string
	env := check.NewEnvelope(opt.Geometry, nvm.Params(c.typ), c.cfg.Bus, c.cfg.BuildLink())
	for _, v := range env.Check(res) {
		bad = append(bad, v.Kind+": "+v.Detail)
	}
	if res != ref {
		bad = append(bad, "result differs from the warm-up pass")
	}
	return bad
}

// replayAll submits ops one at a time, each after the previous returns,
// and counts the requests that returned an error.
func replayAll(d *ssd.SSD, ops []trace.BlockOp) (errs int) {
	for _, op := range ops {
		if _, err := d.Submit(op); err != nil {
			errs++
		}
	}
	return errs
}
