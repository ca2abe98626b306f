package main

import (
	"reflect"
	"testing"

	"oocnvm/internal/check"
	"oocnvm/internal/experiment"
	"oocnvm/internal/ftl"
	"oocnvm/internal/nvm"
	"oocnvm/internal/sim"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

// wrapCase is one small stack the wrapper tests run plain and wrapped.
type wrapCase struct {
	name    string
	cfg     experiment.Config
	durable bool
	profile string
}

var wrapCases = []wrapCase{
	{"ftl-durable-worn", mustConfig("CNL-EXT4"), true, "worn"},
	{"direct", experiment.CNLUFS(), false, "none"},
}

func (wc wrapCase) options() experiment.Options {
	o := experiment.DefaultOptions()
	o.Geometry = check.SmallGeometry()
	o.Seed = 7
	o.Workload.MatrixBytes = o.Geometry.Capacity(nvm.Params(nvm.TLC)) / 4
	o.Fault = mustProfile(wc.profile)
	if wc.durable {
		o.DurableCheckpointPages = 64
	}
	return o
}

// ops is a seeded mixed read/write/trim trace that overwrites the small
// drive about 1.2 times, so the FTL collects garbage.
func (wc wrapCase) ops(opt experiment.Options) []trace.BlockOp {
	cp := nvm.Params(nvm.TLC)
	return check.Generate(check.DefaultParams(opt.Geometry.Capacity(cp), cp.PageSize), sim.NewRNG(opt.Seed))
}

// wrappedStack builds the case's stack with the timing translator and the
// recording link.
func wrappedStack(t *testing.T, c cell, opt experiment.Options, timer *callTimer, log *transferLog) stack {
	t.Helper()
	st, err := build(c, opt, 0, stackParts{timer: timer, log: log, faults: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestWrappersChangeNothing(t *testing.T) {
	for _, wc := range wrapCases {
		t.Run(wc.name, func(t *testing.T) {
			c := cell{wc.cfg, nvm.TLC}
			opt := wc.options()
			ops := wc.ops(opt)
			plain, err := build(c, opt, 0, stackParts{faults: true})
			if err != nil {
				t.Fatal(err)
			}
			timer := &callTimer{}
			timer.reserve(len(ops))
			log := newTransferLog(1 << 16)
			wrapped := wrappedStack(t, c, opt, timer, log)

			plainErrs, wrappedErrs := replayAll(plain.drive, ops), replayAll(wrapped.drive, ops)
			want, got := plain.finish(), wrapped.finish()
			if got != want {
				t.Errorf("wrapped result differs:\n got %+v\nwant %+v", got, want)
			}
			if plainErrs != wrappedErrs {
				t.Errorf("Submit errors: wrapped %d, plain %d", wrappedErrs, plainErrs)
			}
			if len(timer.durs) != len(ops) || timer.pages == 0 {
				t.Errorf("timed %d translator calls returning %d pages for %d requests", len(timer.durs), timer.pages, len(ops))
			}
			if busy := wrapped.link.(interface{ Busy() sim.Time }).Busy(); log.n == 0 || busy == 0 {
				t.Errorf("recording link saw %d transfers, busy %v", log.n, busy)
			}

			_, plainReuses := plain.drive.OpPoolStats()
			gets, reuses := wrapped.drive.OpPoolStats()
			if reuses == 0 || reuses != plainReuses {
				t.Errorf("page-op pool: wrapped %d gets %d reuses, plain %d reuses", gets, reuses, plainReuses)
			}
			if wc.durable {
				mt, ok := wrapped.trans.(interface{ MediaTap() nvm.MediaTap })
				if !ok || mt.MediaTap() == nil {
					t.Fatal("wrapped FTL does not expose its media tap")
				}
				if m, w := plain.ftl.Media().MetaPages(), wrapped.ftl.Media().MetaPages(); m == 0 || w != m {
					t.Errorf("durable metadata pages: wrapped %d, plain %d", w, m)
				}
			}
		})
	}
}

func TestRetireBlockReachesInnerTranslator(t *testing.T) {
	for _, wc := range wrapCases {
		t.Run(wc.name, func(t *testing.T) {
			opt := wc.options()
			st := wrappedStack(t, cell{wc.cfg, nvm.TLC}, opt, &callTimer{}, newTransferLog(0))
			br, ok := st.trans.(ssd.BlockRetirer)
			if !ok {
				t.Fatal("wrapper is not a BlockRetirer")
			}
			if r := br.RetireBlock(0); !r.OK || !r.Retired || len(r.Ops) == 0 {
				t.Errorf("RetireBlock(0) = OK %v, Retired %v, %d ops", r.OK, r.Retired, len(r.Ops))
			}
			if st.ftl != nil && st.ftl.Stats().GrownBadSuper != 1 {
				t.Errorf("inner FTL retired %d superblocks, want 1", st.ftl.Stats().GrownBadSuper)
			}
		})
	}
}

// TestWrappersHaveEveryInnerMethod checks the forwarding by construction:
// every method of a wrapped translator, so every optional interface ssd.New
// or nvm may probe for, is also a method of its wrapper, and the link
// wrapper keeps the surface the device probes links for.
func TestWrappersHaveEveryInnerMethod(t *testing.T) {
	for inner, wrapper := range map[reflect.Type]reflect.Type{
		reflect.TypeOf(&ftl.FTL{}):    reflect.TypeOf(timedFTL{}),
		reflect.TypeOf(&ssd.Direct{}): reflect.TypeOf(timedDirect{}),
	} {
		for i := 0; i < inner.NumMethod(); i++ {
			if name := inner.Method(i).Name; !hasMethod(wrapper, name) {
				t.Errorf("%v lacks %v's method %s", wrapper, inner, name)
			}
		}
	}
	lt := reflect.TypeOf(recordingLink{})
	for _, name := range []string{"Transfer", "RequestOverhead", "BytesPerSec", "Busy", "SetProbe"} {
		if !hasMethod(lt, name) {
			t.Errorf("recordingLink lacks %s", name)
		}
	}
	for _, cfg := range []experiment.Config{experiment.CNLUFS(), experiment.IONGPFS()} {
		if _, err := recordLink(cfg.BuildLink(), newTransferLog(0)); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func hasMethod(t reflect.Type, name string) bool {
	_, ok := t.MethodByName(name)
	return ok
}

// TestWrappersAllocateNothing compares steady-state allocations per Submit
// of the plain and wrapped stacks on the same request sequence.
func TestWrappersAllocateNothing(t *testing.T) {
	const runs = 100
	for _, wc := range wrapCases {
		t.Run(wc.name, func(t *testing.T) {
			c := cell{wc.cfg, nvm.TLC}
			opt := wc.options()
			ops := wc.ops(opt)
			half := len(ops) / 2
			if len(ops)-half < runs+1 {
				t.Fatalf("only %d requests", len(ops))
			}
			plain, err := build(c, opt, 0, stackParts{faults: true})
			if err != nil {
				t.Fatal(err)
			}
			timer := &callTimer{}
			timer.reserve(len(ops))
			wrapped := wrappedStack(t, c, opt, timer, newTransferLog(1<<16))
			perSubmit := func(st stack) float64 {
				replayAll(st.drive, ops[:half])
				next := half
				return testing.AllocsPerRun(runs, func() {
					st.drive.Submit(ops[next])
					next++
				})
			}
			if p, w := perSubmit(plain), perSubmit(wrapped); w != p {
				t.Errorf("allocations per Submit: wrapped %v, plain %v", w, p)
			}
		})
	}
}
