package experiment

import (
	"fmt"

	"oocnvm/internal/fault"
	"oocnvm/internal/ftl"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

// Drive is one configuration's SSD as Assemble built it, plus what its
// close-out needs: the run's collector and whether faults were injected.
type Drive struct {
	*ssd.SSD
	// Fault is the drive's injector; nil when the profile injects nothing.
	Fault *fault.Injector

	col   *obs.Collector
	label string
}

// Assemble builds the drive a configuration runs on for one cell type: the
// translator its row calls for, the fault injector its options imply, and
// the observers they attach. window is the in-flight byte window (zero is
// unbounded). Run, the replay and nvmsim commands and core.NewNode all
// assemble their drives here; an ad-hoc hardware point is a Config of kind
// FSUFS with its own PCIe and Bus. internal/check builds its own stacks,
// around its checking translator.
func Assemble(cfg Config, cell nvm.CellType, opt Options, window int64) (*Drive, error) {
	return assemble(cfg, cell, opt, window, cfg.BuildLink())
}

// assemble is Assemble over an explicit host link, so the media-capable
// remeasurement can swap in an infinitely fast one.
func assemble(cfg Config, cell nvm.CellType, opt Options, window int64, link nvm.Link) (*Drive, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	d := &Drive{col: opt.Obs, label: fmt.Sprintf("%s/%s", cfg.Name, cell)}
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
			return nil, err
		}
		// The evaluation stages its dataset before computing; a replayed
		// trace has no dataset size and runs on an empty FTL.
		if opt.Workload.MatrixBytes > 0 {
			if err := f.Preload(opt.Workload.MatrixBytes); err != nil {
				return nil, fmt.Errorf("experiment: %s: %w", d.label, err)
			}
		}
		translator = f
	}
	if opt.Fault.Enabled() {
		fc := nvm.FaultConfig(opt.Geometry, cp, opt.Fault, opt.Seed)
		fc.RetentionDays = opt.RetentionDays
		fc.PrecyclePE = opt.PrecyclePE
		inj, err := fault.New(fc)
		if err != nil {
			return nil, err
		}
		d.Fault = inj
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
		Fault:       d.Fault,
		Sampler:     opt.Sampler,
		Attrib:      opt.Attrib,
	}
	if opt.Obs != nil {
		sc.Probe = opt.Obs
	}
	s, err := ssd.New(sc)
	if err != nil {
		return nil, err
	}
	d.SSD = s
	return d, nil
}

// Replay drives a block trace through the drive and closes it out.
func (d *Drive) Replay(ops []trace.BlockOp) (ssd.Result, error) {
	for _, op := range ops {
		d.Submit(op)
	}
	return d.Finish()
}

// Finish drains the drive and closes it out: the device's metrics registry
// is folded into the run's collector, and a drive without an injector fails
// at its first error. A fault-free drive has no reason to reject an op, so
// its error means the bandwidth is not the trace's.
func (d *Drive) Finish() (ssd.Result, error) {
	res := d.SSD.Finish()
	if d.col != nil {
		d.col.Reg.Absorb(d.Dev.Registry())
	}
	if err := d.Err(); err != nil && d.Fault == nil {
		return ssd.Result{}, fmt.Errorf("experiment: %s: %w", d.label, err)
	}
	return res, nil
}
