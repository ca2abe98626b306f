package check

import (
	"errors"
	"strings"
	"testing"

	"oocnvm/internal/fault"
	"oocnvm/internal/ftl"
	"oocnvm/internal/nvm"
	"oocnvm/internal/sim"
)

// crashParams shrinks the default workload so a sweep (which replays the
// trace once per crash point) stays fast while still overwriting enough of
// the small device to run GC and several checkpoints.
func crashParams(sc StackConfig) Params {
	p := DefaultParams(sc.Capacity(), nvm.Params(sc.Cell).PageSize)
	p.Ops /= 3
	if p.Ops < 40 {
		p.Ops = 40
	}
	return p
}

// TestCrashSweepDurability is the issue's core property: crash a seeded
// workload at every Nth program/erase boundary (and once mid-flight by
// wall clock) and require the durability contract to hold at every point,
// with byte-identical recovery on repeat runs.
func TestCrashSweepDurability(t *testing.T) {
	for _, name := range []string{"CNL-EXT4", "ION-GPFS"} {
		cfg := findConfig(t, name)
		for seed := uint64(1); seed <= 2; seed++ {
			sc := StackConfig{Config: cfg, Cell: nvm.MLC, Seed: seed}
			res, err := CrashSweep(sc, crashParams(sc), 0)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
			if res.Points == 0 {
				t.Fatalf("%s seed=%d: sweep had no crash points (total PE ops %d)", name, seed, res.TotalPEOps)
			}
			if !res.DeterminismOK {
				t.Errorf("%s seed=%d: recovery not deterministic", name, seed)
			}
			for _, f := range res.Failures {
				t.Errorf("%s seed=%d crash %+v: %d violations, first: %v",
					name, seed, f.Plan, len(f.Violations), f.Violations[0])
				break
			}
		}
	}
}

// TestCrashReplayRecoversAckedWrites pins the single-point behavior: the
// cut fires, the interrupted request errors with fault.ErrPowerLoss,
// subsequent requests are rejected, and recovery reports a scanned open
// superblock.
func TestCrashReplayRecoversAckedWrites(t *testing.T) {
	sc := StackConfig{Config: findConfig(t, "CNL-EXT4"), Cell: nvm.MLC, Seed: 3}
	p := crashParams(sc)
	res, err := CrashReplay(sc, Generate(p, sim.NewRNG(sc.Seed)), fault.CrashPlan{AfterOps: 25})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("crash plan never fired")
	}
	if res.PEOps < 25 {
		t.Fatalf("cut at PE op %d, want >= 25", res.PEOps)
	}
	if res.RecoverErr != nil {
		t.Fatalf("recovery failed: %v", res.RecoverErr)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	if res.State == "" {
		t.Error("empty recovered state dump")
	}
}

// TestCrashUnrecoverableMeta corrupts a committed journal page under the
// recovery horizon and requires the typed error plus a read-only salvage
// mount that still refuses to serve torn pages.
func TestCrashUnrecoverableMeta(t *testing.T) {
	sc := StackConfig{Config: findConfig(t, "CNL-EXT4"), Cell: nvm.MLC, Seed: 5}
	opt := sc.crashOptions(fault.CrashPlan{AfterOps: 60})
	st, err := buildStack(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	f := st.checked.Translator.(*ftl.FTL)
	p := crashParams(sc)
	for _, op := range Generate(p, sim.NewRNG(sc.Seed)) {
		if st.drive.Fault.Crashed() {
			break
		}
		st.drive.Submit(op)
	}
	if !st.drive.Fault.Crashed() {
		t.Fatal("crash plan never fired")
	}
	m := f.Media()
	if m.MetaPages() == 0 {
		t.Fatal("no committed metadata pages to corrupt")
	}
	if !m.CorruptMeta(m.MetaPages() - 1) {
		t.Fatal("could not corrupt newest metadata page")
	}
	rf, rep, rerr := recoverMedia(sc.Cell, opt, m)
	if !errors.Is(rerr, ftl.ErrUnrecoverableMeta) {
		t.Fatalf("recover returned %v, want ErrUnrecoverableMeta", rerr)
	}
	if !rep.ReadOnly || !errors.Is(rf.Err(), ftl.ErrUnrecoverableMeta) {
		t.Fatal("salvage mount is not read-only")
	}
	if !strings.Contains(rf.DumpState(), "readOnly=true") {
		t.Fatal("state dump does not record read-only mount")
	}
}
