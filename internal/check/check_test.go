package check

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"oocnvm/internal/experiment"
	"oocnvm/internal/fault"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/sim"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

func findConfig(t *testing.T, name string) experiment.Config {
	t.Helper()
	cfg, err := experiment.FindConfig(name)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func profile(t *testing.T, name string) fault.Profile {
	t.Helper()
	p, err := fault.ForName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEpisodesCleanAcrossConfigs replays seeded random workloads through
// the three architectures of the acceptance matrix (UFS/Direct, local FTL,
// ION-remote FTL), fault-free and under wear, and requires the oracle and
// the envelope to stay silent.
func TestEpisodesCleanAcrossConfigs(t *testing.T) {
	for _, name := range []string{"CNL-UFS", "CNL-EXT4", "ION-GPFS"} {
		for _, prof := range []string{"none", "worn", "eol"} {
			for _, cell := range []nvm.CellType{nvm.MLC, nvm.TLC} {
				cfg := findConfig(t, name)
				for seed := uint64(1); seed <= 3; seed++ {
					sc := StackConfig{Config: cfg, Cell: cell, Seed: seed, Fault: profile(t, prof)}
					p := DefaultParams(sc.Capacity(), nvm.Params(cell).PageSize)
					res, err := RunEpisode(sc, p)
					if err != nil {
						t.Fatalf("%s/%s/%v: %v", name, prof, cell, err)
					}
					if len(res.Violations) > 0 {
						t.Errorf("%s/%s/%v seed=%d: %d violations, first: %v",
							name, prof, cell, seed, len(res.Violations), res.Violations[0])
					}
				}
			}
		}
	}
}

// TestCheckedStackIsTheFiguresStack replays each episode's trace through
// the drive experiment.Assemble builds for the same row and options around
// the unchecked translator, as Run does. The checked episode must report
// the very same result, field for field: the checker checks the stack the
// figures run on. Observed the same way, with a registry-only collector and
// a 100 µs sampler on both sides, the checked stack must also export the
// same metrics and series byte for byte, so its FTL is probed and sampled
// like the figures' one.
func TestCheckedStackIsTheFiguresStack(t *testing.T) {
	for _, name := range []string{"CNL-UFS", "CNL-EXT4", "ION-GPFS"} {
		cfg := findConfig(t, name)
		for _, prof := range []string{"none", "worn"} {
			for _, cell := range []nvm.CellType{nvm.MLC, nvm.TLC} {
				row := fmt.Sprintf("%s/%s/%v", name, prof, cell)
				sc := StackConfig{Config: cfg, Cell: cell, Seed: 1, Fault: profile(t, prof)}
				checked, err := RunEpisode(sc, DefaultParams(sc.Capacity(), nvm.Params(cell).PageSize))
				if err != nil {
					t.Fatal(err)
				}
				plain := observedReplay(t, sc, checked.Trace, func(opt experiment.Options) (*experiment.Drive, error) {
					tr, err := experiment.Translator(cfg, cell, opt)
					if err != nil {
						return nil, err
					}
					return experiment.Assemble(cfg, cell, tr, opt, 0)
				})
				if got, want := fmt.Sprintf("%#v", checked.Result), plain.result; got != want {
					t.Errorf("%s: checked episode's result\n%s\ndiffers from the unchecked drive's\n%s", row, got, want)
				}
				observed := observedReplay(t, sc, checked.Trace, func(opt experiment.Options) (*experiment.Drive, error) {
					st, err := buildStack(sc, opt)
					return st.drive, err
				})
				if observed.result != plain.result {
					t.Errorf("%s: observing the checked stack changed its result", row)
				}
				if !bytes.Equal(observed.metrics, plain.metrics) {
					t.Errorf("%s: checked stack's metrics differ from the unchecked drive's, %s",
						row, firstDiff(observed.metrics, plain.metrics))
				}
				if !bytes.Equal(observed.series, plain.series) {
					t.Errorf("%s: checked stack's sampled series differ from the unchecked drive's, %s",
						row, firstDiff(observed.series, plain.series))
				}
			}
		}
	}
}

// observation is one observed replay: the result as %#v, the metrics JSON
// and the sampled series CSV.
type observation struct {
	result          string
	metrics, series []byte
}

// observedReplay builds a drive for sc's options plus a registry-only
// collector and a 100 µs sampler, replays ops through it and closes it out
// as Replay does: the SSD's Replay, then the device registry absorbed into
// the collector.
func observedReplay(t *testing.T, sc StackConfig, ops []trace.BlockOp, build func(experiment.Options) (*experiment.Drive, error)) observation {
	t.Helper()
	opt := sc.options()
	opt.Obs = &obs.Collector{Reg: obs.NewRegistry()}
	opt.Sampler = timeseries.NewSampler(100*sim.Microsecond, 0)
	d, err := build(opt)
	if err != nil {
		t.Fatal(err)
	}
	res := d.SSD.Replay(ops)
	opt.Obs.Reg.Absorb(d.Dev.Registry())
	var metrics, series bytes.Buffer
	if err := opt.Obs.Reg.WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := opt.Sampler.WriteCSV(&series); err != nil {
		t.Fatal(err)
	}
	return observation{fmt.Sprintf("%#v", res), metrics.Bytes(), series.Bytes()}
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("first at line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "equal"
}

// TestFlippedLBACaughtAndShrunk injects the issue's intentional mapping bug
// — reads are served from a bit-flipped LBA — through the test-only
// FlipOffset hook, and requires (a) the oracle catches it and (b) the
// shrinker minimizes the failing episode to a reproducer of at most 10
// requests.
func TestFlippedLBACaughtAndShrunk(t *testing.T) {
	for _, name := range []string{"CNL-UFS", "CNL-EXT4"} {
		cfg := findConfig(t, name)
		ps := nvm.Params(nvm.MLC).PageSize
		sc := StackConfig{Config: cfg, Cell: nvm.MLC, Seed: 7,
			Flip: func(off int64) int64 { return off ^ ps }}
		p := DefaultParams(sc.Capacity(), ps)
		res, err := RunEpisode(sc, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) == 0 {
			t.Fatalf("%s: flipped-LBA bug not caught over %d requests", name, len(res.Trace))
		}
		small := Shrink(res.Trace, FailsWith(sc))
		if len(small) > 10 {
			t.Fatalf("%s: shrunk reproducer has %d requests, want <= 10", name, len(small))
		}
		if rep, _ := Replay(sc, small); len(rep.Violations) == 0 {
			t.Fatalf("%s: shrunk trace no longer reproduces the violation", name)
		}
		t.Logf("%s: %d requests shrunk to %d", name, len(res.Trace), len(small))
	}
}

// TestOracleSemantics drives the oracle directly through the MappingTap
// surface and checks its verdicts case by case.
func TestOracleSemantics(t *testing.T) {
	o := NewOracle(1)
	o.BumpVersion(5)
	o.MapWrite(5, 100)
	o.MapRead(5, 100)
	if n := o.Count(); n != 0 {
		t.Fatalf("clean write/read flagged: %v", o.Violations())
	}
	o.MapRead(5, 101) // wrong physical page
	if n := o.Count(); n != 1 {
		t.Fatalf("misdirected read not flagged, count=%d", n)
	}
	o.MapRead(99, 12345) // never written: unknown, must not flag
	if n := o.Count(); n != 1 {
		t.Fatalf("read of unplaced lpn flagged: %v", o.Violations())
	}
	o.BumpVersion(6)
	o.MapWrite(6, 100) // 100 still holds live lpn 5
	if n := o.Count(); n != 2 {
		t.Fatalf("double placement not flagged, count=%d", n)
	}
	o.MapTrim(5)
	o.MapRead(5, 100) // trimmed: unknown again, must not flag
	if n := o.Count(); n != 2 {
		t.Fatalf("read after trim flagged: %v", o.Violations())
	}
	// Relocation preserves content: same version moved to a new ppn.
	o.MapWrite(6, 200)
	o.MapRead(6, 200)
	if n := o.Count(); n != 2 {
		t.Fatalf("relocated read flagged: %v", o.Violations())
	}
	o.MapRead(6, 100) // stale pre-relocation location
	if n := o.Count(); n != 3 {
		t.Fatalf("stale read not flagged, count=%d", n)
	}
}

// TestEnvelopeFlagsImpossibleResults fabricates results that violate the
// closed-form bounds and checks each bound fires.
func TestEnvelopeFlagsImpossibleResults(t *testing.T) {
	geo := SmallGeometry()
	cell := nvm.Params(nvm.MLC)
	cfg := findConfig(t, "CNL-UFS")
	env := NewEnvelope(geo, cell, cfg.Bus, cfg.BuildLink())

	mk := func(reads, programs int64, span sim.Time) ssd.Result {
		var r ssd.Result
		r.Stats.Reads = reads
		r.Stats.Programs = programs
		r.Stats.BytesRead = reads * cell.PageSize
		r.Stats.BytesWritten = programs * cell.PageSize
		r.Stats.Span = span
		return r
	}

	if v := env.Check(mk(1000, 0, sim.Second)); len(v) != 0 {
		t.Fatalf("plausible result flagged: %v", v)
	}
	// 1000 pages in 1us beats every transfer and activation floor.
	if v := env.Check(mk(1000, 0, sim.Microsecond)); len(v) == 0 {
		t.Fatal("impossibly fast result not flagged")
	}
	bad := mk(1000, 0, sim.Second)
	bad.Stats.BytesRead++ // byte/page counters disagree
	if v := env.Check(bad); len(v) == 0 {
		t.Fatal("conservation violation not flagged")
	}
	bad = mk(0, 0, 0)
	bad.Stats.ChannelUtilization = 1.5
	bad.Stats.Reads = 1
	bad.Stats.BytesRead = cell.PageSize
	bad.Stats.Span = sim.Second
	if v := env.Check(bad); len(v) == 0 {
		t.Fatal("out-of-range utilization not flagged")
	}
}

// TestGenerateDeterministicAndBounded checks the generator is seed-stable
// and keeps every request inside the configured region.
func TestGenerateDeterministicAndBounded(t *testing.T) {
	p := DefaultParams(32<<20, 4096)
	a := Generate(p, sim.NewRNG(9))
	b := Generate(p, sim.NewRNG(9))
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	var kinds [3]int
	for _, op := range a {
		kinds[op.Kind]++
		if op.Offset < 0 || op.Size <= 0 || op.Offset+op.Size > p.Region {
			t.Fatalf("op outside region: %+v", op)
		}
	}
	for k, n := range kinds {
		if n == 0 {
			t.Fatalf("kind %v never generated in %d ops", trace.Kind(k), len(a))
		}
	}
	if c := Generate(p, sim.NewRNG(10)); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

// TestShrinkMinimizes checks ddmin on a synthetic predicate: the failure
// needs one specific write followed (anywhere later) by one specific read.
func TestShrinkMinimizes(t *testing.T) {
	p := DefaultParams(32<<20, 4096)
	ops := Generate(p, sim.NewRNG(3))
	fails := func(ops []trace.BlockOp) bool {
		wrote := false
		for _, op := range ops {
			if op.Kind == trace.Write && op.Offset < 1<<20 {
				wrote = true
			}
			if wrote && op.Kind == trace.Read && op.Offset < 1<<20 {
				return true
			}
		}
		return false
	}
	if !fails(ops) {
		t.Skip("seed produced no failing pattern")
	}
	small := Shrink(ops, fails)
	if len(small) != 2 {
		t.Fatalf("shrunk to %d ops, want 2: %+v", len(small), small)
	}
	if !fails(small) {
		t.Fatal("shrunk trace no longer fails")
	}
}

// TestMetamorphicInvariantsHold runs the metamorphic relations on
// representative configs: determinism, lane/channel monotonicity, and the
// paper's ION→CNL placement claim.
func TestMetamorphicInvariantsHold(t *testing.T) {
	for _, name := range []string{"CNL-UFS", "CNL-EXT4"} {
		sc := StackConfig{Config: findConfig(t, name), Cell: nvm.MLC, Seed: 11}
		p := DefaultParams(sc.Capacity(), nvm.Params(nvm.MLC).PageSize)
		for _, run := range []struct {
			label string
			fn    func(StackConfig, Params) ([]Violation, error)
		}{
			{"determinism", CheckDeterminism},
			{"lanes", CheckLaneMonotonicity},
			{"channels", CheckChannelMonotonicity},
			{"placement", CheckPlacementMonotonicity},
		} {
			viol, err := run.fn(sc, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, run.label, err)
			}
			if len(viol) > 0 {
				t.Errorf("%s/%s: %v", name, run.label, viol[0])
			}
		}
	}
}

// TestCheckedForwardsRetirement ensures the wrapper exposes the inner
// translator's retirement capability (and degrades gracefully without it),
// so fault recovery behaves identically through the checked stack.
func TestCheckedForwardsRetirement(t *testing.T) {
	geo := SmallGeometry()
	cell := nvm.Params(nvm.MLC)
	d := ssd.NewDirect(geo, cell)
	c := Wrap(d, 1)
	if ret := c.RetireBlock(0); !ret.OK || !ret.Retired {
		t.Fatalf("retirement not forwarded: %+v", ret)
	}
	if _, isRetirer := any(c).(ssd.BlockRetirer); !isRetirer {
		t.Fatal("Checked must satisfy ssd.BlockRetirer")
	}
}

// TestViolationDetailCap keeps a pathologically broken stack from flooding
// memory: details are capped while the count keeps the truth.
func TestViolationDetailCap(t *testing.T) {
	o := NewOracle(1)
	o.MapWrite(1, 50)
	for lpn := int64(2); lpn < 200; lpn++ {
		o.MapWrite(lpn, 50) // every placement collides
	}
	if len(o.Violations()) > maxViolations {
		t.Fatalf("detail list grew to %d, cap is %d", len(o.Violations()), maxViolations)
	}
	if o.Count() < int64(len(o.Violations())) || o.Count() < 100 {
		t.Fatalf("count %d inconsistent with cap", o.Count())
	}
	if !strings.Contains(o.Violations()[0].String(), "integrity") {
		t.Fatalf("unexpected violation rendering: %v", o.Violations()[0])
	}
}

// Count reports the total number of integrity violations observed,
// including any beyond the detail cap.
func (o *Oracle) Count() int64 { return o.nViol }
