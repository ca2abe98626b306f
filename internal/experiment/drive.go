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
	// Fault is the drive's injector; nil when the profile injects nothing
	// and no crash plan is armed.
	Fault *fault.Injector

	col   *obs.Collector
	label string
}

// Translator builds the translator a configuration's row calls for on one
// cell type: Direct for a UFS row, otherwise an FTL, durable when
// opt.DurableCheckpointPages > 0 and holding the workload's dataset when
// opt.Workload.MatrixBytes > 0.
func Translator(cfg Config, cell nvm.CellType, opt Options) (ssd.Translator, error) {
	cp := nvm.Params(cell)
	if cfg.Kind == FSUFS {
		return ssd.NewDirect(opt.Geometry, cp), nil
	}
	var dc ftl.DurableConfig
	if opt.DurableCheckpointPages > 0 {
		dc = ftl.DurableConfig{Enabled: true, CheckpointEveryPages: opt.DurableCheckpointPages}
	}
	f, err := ftl.New(opt.Geometry, cp, ftl.Config{Durable: dc})
	if err != nil {
		return nil, err
	}
	// The evaluation stages its dataset before computing; a replayed trace
	// has no dataset size and runs on an empty FTL.
	if opt.Workload.MatrixBytes > 0 {
		if err := f.Preload(opt.Workload.MatrixBytes); err != nil {
			return nil, fmt.Errorf("experiment: %s/%s: %w", cfg.Name, cell, err)
		}
	}
	return f, nil
}

// Assemble builds the drive a configuration runs on for one cell type
// around the translator tr: the fault injector its options imply (armed
// with opt.Crash when set) and the observers they attach. window is the
// in-flight byte window (zero is unbounded). Run, the replay and nvmsim
// commands and core.NewNode pass their row's Translator; internal/check
// wraps it in its checking translator, and its post-crash mount passes the
// FTL ftl.Recover returned. An ad-hoc hardware point is a Config of kind
// FSUFS with its own PCIe and Bus.
func Assemble(cfg Config, cell nvm.CellType, tr ssd.Translator, opt Options, window int64) (*Drive, error) {
	return assemble(cfg, cell, tr, opt, window, cfg.BuildLink())
}

// assemble is Assemble over an explicit host link, so the media-capable
// remeasurement can swap in an infinitely fast one.
func assemble(cfg Config, cell nvm.CellType, tr ssd.Translator, opt Options, window int64, link nvm.Link) (*Drive, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	d := &Drive{col: opt.Obs, label: fmt.Sprintf("%s/%s", cfg.Name, cell)}
	cp := nvm.Params(cell)
	if opt.Fault.Enabled() || opt.Crash != nil {
		fc := nvm.FaultConfig(opt.Geometry, cp, opt.Fault, opt.Seed)
		fc.RetentionDays = opt.RetentionDays
		fc.PrecyclePE = opt.PrecyclePE
		inj, err := fault.New(fc)
		if err != nil {
			return nil, err
		}
		if opt.Crash != nil {
			inj.ArmCrash(*opt.Crash)
		}
		d.Fault = inj
	}
	sc := ssd.Config{
		Geometry:    opt.Geometry,
		Cell:        cp,
		Bus:         cfg.Bus,
		Link:        link,
		Translator:  tr,
		QueueDepth:  opt.QueueDepth,
		WindowBytes: window,
		Seed:        opt.Seed,
		Probe:       opt.Obs,
		Fault:       d.Fault,
		Sampler:     opt.Sampler,
		Attrib:      opt.Attrib,
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
// is folded into the run's collector when it has a registry, and a drive
// without an injector fails at its first error. A fault-free drive has no
// reason to reject an op, so its error means the bandwidth is not the
// trace's.
func (d *Drive) Finish() (ssd.Result, error) {
	res := d.SSD.Finish()
	if d.col != nil && d.col.Reg != nil {
		d.col.Reg.Absorb(d.Dev.Registry())
	}
	if err := d.Err(); err != nil && d.Fault == nil {
		return ssd.Result{}, fmt.Errorf("experiment: %s: %w", d.label, err)
	}
	return res, nil
}
