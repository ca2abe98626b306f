package check

import (
	"fmt"

	"oocnvm/internal/experiment"
	"oocnvm/internal/fault"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/sim"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

// StackConfig describes one checked stack: a Table 2 experiment row (which
// fixes the translator kind, host interconnect and NVM bus), a cell type, a
// device geometry, and an optional fault profile. The stack is the drive
// experiment.Assemble builds for them around the row's translator, wrapped
// in Checked.
type StackConfig struct {
	Config   experiment.Config
	Cell     nvm.CellType
	Geometry nvm.Geometry // zero value: SmallGeometry()
	Fault    fault.Profile
	Seed     uint64
	// Flip, when set, is installed as the Checked wrapper's FlipOffset
	// test hook (an intentionally injected translation defect).
	Flip func(int64) int64
}

// SmallGeometry is the episode device: large enough to exercise striping,
// multi-plane merging and superblock GC, small enough that a single episode
// overwrites the whole device in a few hundred requests.
func SmallGeometry() nvm.Geometry {
	return nvm.Geometry{Channels: 2, PackagesPerChannel: 2, DiesPerPackage: 1, BlocksPerPlane: 6}
}

func (sc StackConfig) geometry() nvm.Geometry {
	if sc.Geometry == (nvm.Geometry{}) {
		return SmallGeometry()
	}
	return sc.Geometry
}

// options are the Assemble options of the config's checked stack.
func (sc StackConfig) options() experiment.Options {
	return experiment.Options{Geometry: sc.geometry(), QueueDepth: ssd.DefaultQueueDepth, Seed: sc.Seed, Fault: sc.Fault}
}

// stack bundles one assembled checked drive with everything an episode (or
// a crash replay) needs to interrogate afterwards.
type stack struct {
	drive   *experiment.Drive
	checked *Checked
	env     Envelope
	rec     *attrib.Recorder
}

// buildStack assembles the checked drive for the config under opt: the
// row's translator wrapped in Checked, which carries the oracle, and the
// envelope derived from the same configuration. Every checked stack also
// carries a latency-attribution recorder so each episode exercises the
// attribution conservation envelope alongside the oracle.
func buildStack(sc StackConfig, opt experiment.Options) (stack, error) {
	tr, err := experiment.Translator(sc.Config, sc.Cell, opt)
	if err != nil {
		return stack{}, err
	}
	checked := Wrap(tr, sc.Seed)
	checked.FlipOffset = sc.Flip
	opt.Attrib = attrib.NewRecorder(0)
	drive, err := experiment.Assemble(sc.Config, sc.Cell, checked, opt, 0)
	if err != nil {
		return stack{}, err
	}
	env := NewEnvelope(opt.Geometry, nvm.Params(sc.Cell), sc.Config.Bus, sc.Config.BuildLink())
	return stack{drive: drive, checked: checked, env: env, rec: opt.Attrib}, nil
}

// Capacity reports the stack's device capacity in bytes (for sizing
// workloads without building the stack twice).
func (sc StackConfig) Capacity() int64 {
	return sc.geometry().Capacity(nvm.Params(sc.Cell))
}

// EpisodeResult is one episode's outcome: the replayed trace, the drive's
// measurements, the latency-attribution aggregate, and every violation the
// oracle, the analytical envelope, and the attribution conservation
// envelope recorded.
type EpisodeResult struct {
	Trace      []trace.BlockOp
	Result     ssd.Result
	Attrib     attrib.Summary
	Violations []Violation
}

// RunEpisode generates a seeded workload, replays it through a freshly
// built checked stack, and returns the trace, result, and violations.
func RunEpisode(sc StackConfig, p Params) (EpisodeResult, error) {
	ops := Generate(p, sim.NewRNG(sc.Seed))
	res, err := Replay(sc, ops)
	res.Trace = ops
	return res, err
}

// Replay runs an explicit trace through a freshly built checked stack. It
// is the primitive both RunEpisode and the shrinker use: building a new
// stack per attempt keeps every replay independent and deterministic.
func Replay(sc StackConfig, ops []trace.BlockOp) (EpisodeResult, error) {
	st, err := buildStack(sc, sc.options())
	if err != nil {
		return EpisodeResult{}, err
	}
	// The SSD's Replay, not the Drive's close-out: a fault-free drive's
	// error is reported below as a violation, beside the result it gave.
	res := st.drive.SSD.Replay(ops)

	out := EpisodeResult{Trace: ops, Result: res, Attrib: st.rec.Summary()}
	out.Violations = append(out.Violations, st.checked.Oracle().Violations()...)
	out.Violations = append(out.Violations, st.env.Check(res)...)
	out.Violations = append(out.Violations, CheckAttribution(out.Attrib)...)
	// Fault-free stacks must not error: the generator never leaves the
	// device, so any surfaced error is the stack's own defect.
	if err := st.drive.Err(); err != nil && !sc.Fault.Enabled() {
		out.Violations = append(out.Violations,
			Violation{Kind: "error", Detail: fmt.Sprintf("fault-free replay surfaced %v", err)})
	}
	return out, nil
}
