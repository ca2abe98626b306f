package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oocnvm/internal/obs/export"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

// writeTestTrace writes a small synthetic block trace and returns its path.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	var ops []trace.BlockOp
	for i := int64(0); i < 24; i++ {
		ops = append(ops, trace.BlockOp{Kind: trace.Read, Offset: i * (1 << 20), Size: 1 << 20})
		if i%8 == 7 {
			ops = append(ops, trace.BlockOp{Kind: trace.Write, Offset: 1 << 30, Size: 16 << 10, Meta: true})
		}
	}
	path := filepath.Join(t.TempDir(), "test.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteBlockTrace(f, ops); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayFailsFaultFreeDriveErrors pins that a fault-free run whose drive
// rejected an op fails instead of printing the bandwidth of the ops that ran,
// and that a negative queue depth is refused rather than clamped.
func TestReplayFailsFaultFreeDriveErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oob.json")
	oob := `[{"kind":0,"offset":0,"size":1048576},{"kind":0,"offset":4611686018427387904,"size":1048576}]`
	if err := os.WriteFile(path, []byte(oob), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(options{file: path, asJSON: true, cfgName: "CNL-UFS", cellName: "TLC", qd: 32, seed: 42}, &out)
	if !errors.Is(err, ssd.ErrOutOfRange) {
		t.Fatalf("out-of-range replay error = %v, want ssd.ErrOutOfRange", err)
	}
	if strings.Contains(out.String(), "bandwidth") {
		t.Errorf("failed replay printed a bandwidth:\n%s", out.String())
	}
	if err := run(options{file: writeTestTrace(t), cfgName: "CNL-EXT4", cellName: "TLC", qd: -2, seed: 42}, &out); err == nil {
		t.Error("negative queue depth accepted")
	}
}

// TestReplayObservabilityEndToEnd drives the full replay pipeline with both
// exports enabled and validates (a) the trace file is well-formed Chrome
// trace_event JSON with spans from multiple layers, and (b) the exported
// metrics reconcile with the printed result: the ssd span/bandwidth gauges
// and data-byte counter must match the replay's own Result within 1%.
func TestReplayObservabilityEndToEnd(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.json")
	metricsOut := filepath.Join(dir, "metrics.json")
	var out bytes.Buffer
	err := run(options{
		file:     writeTestTrace(t),
		cfgName:  "CNL-UFS",
		cellName: "SLC",
		qd:       32,
		seed:     42,
		exp:      export.Flags{TraceOut: traceOut, MetricsOut: metricsOut},
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	// Console output: Result.String() table plus the stage breakdown.
	for _, want := range []string{"elapsed", "bandwidth", "per-stage latency breakdown:", "ssd.request.latency"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("console output missing %q:\n%s", want, out.String())
		}
	}

	// (a) Chrome trace structure.
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	layers := map[string]bool{}
	var spans int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				layers[ev.Args.Name] = true
			}
		case "X":
			spans++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("bad span ts/dur: %+v", ev)
			}
		}
	}
	if spans == 0 {
		t.Fatal("trace has no spans")
	}
	for _, layer := range []string{"ssd", "nvm", "interconnect"} {
		if !layers[layer] {
			t.Fatalf("trace missing layer %q (got %v)", layer, layers)
		}
	}

	// (b) Metrics reconciliation within 1%.
	mraw, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"gauges"`
		Histograms []struct {
			Name  string `json:"name"`
			Count int64  `json:"count"`
			P50Ps int64  `json:"p50_ps"`
			P95Ps int64  `json:"p95_ps"`
			P99Ps int64  `json:"p99_ps"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(mraw, &snap); err != nil {
		t.Fatalf("metrics output is not valid JSON: %v", err)
	}
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}

	// The replay's own numbers, recomputed from an identical un-probed run.
	var plain bytes.Buffer
	if err := run(options{
		file: writeTestTrace(t), cfgName: "CNL-UFS", cellName: "SLC", qd: 32, seed: 42,
	}, &plain); err != nil {
		t.Fatal(err)
	}

	if got, want := counters["ssd.data_bytes"], int64(24<<20); got != want {
		t.Fatalf("ssd.data_bytes = %d, want %d", got, want)
	}
	spanPs, bwBps := gauges["ssd.span_ps"], gauges["ssd.bandwidth_bps"]
	if spanPs <= 0 || bwBps <= 0 {
		t.Fatalf("degenerate ssd gauges: span=%v bw=%v", spanPs, bwBps)
	}
	// bandwidth * span must equal data bytes within 1% (ps → s is 1e12).
	recon := bwBps * spanPs / 1e12
	if diff := math.Abs(recon-float64(24<<20)) / float64(24<<20); diff > 0.01 {
		t.Fatalf("bandwidth*span = %.0f bytes, want %d within 1%% (off by %.2f%%)",
			recon, 24<<20, 100*diff)
	}
	// The nvm registry was absorbed: device counters and span gauge present
	// and consistent with the ssd view.
	if counters["nvm.reads"] == 0 {
		t.Fatal("nvm.reads missing from absorbed registry")
	}
	if nvmSpan := gauges["nvm.span_ps"]; math.Abs(nvmSpan-spanPs)/spanPs > 0.01 {
		t.Fatalf("nvm.span_ps %v disagrees with ssd.span_ps %v", nvmSpan, spanPs)
	}

	// Latency histograms exported with percentiles.
	var sawLatency bool
	for _, h := range snap.Histograms {
		if h.Name == "ssd.request.latency" {
			sawLatency = true
			if h.Count == 0 || h.P50Ps <= 0 || h.P95Ps < h.P50Ps || h.P99Ps < h.P95Ps {
				t.Fatalf("degenerate latency histogram: %+v", h)
			}
		}
	}
	if !sawLatency {
		t.Fatal("ssd.request.latency histogram missing")
	}

	// Observability must not perturb the simulation: identical headline
	// table with and without probes.
	probed := out.String()[:strings.Index(out.String(), "per-stage")]
	if !strings.Contains(probed, "elapsed") || !strings.HasPrefix(plain.String(), probed[:strings.Index(probed, "latency:")]) {
		t.Fatalf("probed and unprobed runs diverge:\nprobed:\n%s\nplain:\n%s", probed, plain.String())
	}
}

// TestReplayNoExportFlagsNoFiles ensures observability stays off (and no
// files appear) when the flags are not given.
func TestReplayNoExportFlagsNoFiles(t *testing.T) {
	var out bytes.Buffer
	if err := run(options{
		file: writeTestTrace(t), cfgName: "CNL-EXT4", cellName: "MLC", qd: 32, seed: 1,
	}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "per-stage latency breakdown") {
		t.Fatal("stage table printed without a collector")
	}
}

// TestReplayFaultProfileEndToEnd runs the CLI pipeline with the eol fault
// profile on a TLC drive and checks the fault machinery surfaces in the
// console output: the profile banner, the fault summary counters, and the
// first-error line for uncorrectable reads. A "none" run of the same trace
// must print no fault summary at all.
func TestReplayFaultProfileEndToEnd(t *testing.T) {
	file := writeTestTrace(t)
	var out bytes.Buffer
	err := run(options{
		file: file, cfgName: "CNL-UFS", cellName: "TLC", qd: 32, seed: 42,
		faultProfile: "eol",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fault profile: eol", "fault reads", "uncorrectable", "first error:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("faulted replay output missing %q:\n%s", want, out.String())
		}
	}

	// Determinism: a second identical run prints byte-identical output.
	var again bytes.Buffer
	if err := run(options{
		file: file, cfgName: "CNL-UFS", cellName: "TLC", qd: 32, seed: 42,
		faultProfile: "eol",
	}, &again); err != nil {
		t.Fatal(err)
	}
	if out.String() != again.String() {
		t.Fatalf("faulted replay not deterministic:\n%s\nvs\n%s", out.String(), again.String())
	}

	// The same trace under the zeroed profile stays silent about faults.
	var clean bytes.Buffer
	if err := run(options{
		file: file, cfgName: "CNL-UFS", cellName: "TLC", qd: 32, seed: 42,
		faultProfile: "none",
	}, &clean); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "fault") {
		t.Fatalf("zeroed profile printed fault state:\n%s", clean.String())
	}

	// Unknown profiles are rejected with the roster, not a crash.
	if err := run(options{
		file: file, cfgName: "CNL-UFS", cellName: "TLC", qd: 32, seed: 42,
		faultProfile: "bogus",
	}, &out); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("bad profile error = %v", err)
	}
}

// TestReplayExportsGoldenDeterminism is the telemetry determinism contract:
// two replays of the same trace with the same seed must produce byte-identical
// metrics (JSON and CSV), report HTML, and report series CSV. Everything in
// the export path is driven by the simulated clock, so any divergence means
// wall time or map order leaked into an artifact.
func TestReplayExportsGoldenDeterminism(t *testing.T) {
	file := writeTestTrace(t)
	artifacts := func(dir string) (opts options, paths []string) {
		opts = options{
			file: file, cfgName: "CNL-EXT4", cellName: "TLC", qd: 32, seed: 7,
			faultProfile: "worn",
			exp: export.Flags{
				MetricsOut: filepath.Join(dir, "metrics.json"),
				ReportOut:  filepath.Join(dir, "report.html"),
				TraceOut:   filepath.Join(dir, "trace.json"),
				SampleUS:   100,
				Attrib:     true,
				AttribOut:  filepath.Join(dir, "anatomy.csv"),
				AttribTop:  16,
			},
		}
		paths = []string{
			opts.exp.MetricsOut,
			filepath.Join(dir, "metrics.csv"),
			opts.exp.ReportOut,
			filepath.Join(dir, "report.csv"),
			opts.exp.TraceOut,
			opts.exp.AttribOut,
		}
		return opts, paths
	}

	dirA, dirB := t.TempDir(), t.TempDir()
	optsA, pathsA := artifacts(dirA)
	optsB, pathsB := artifacts(dirB)
	// The CSV metrics flavor rides along via a second metrics path.
	var outA, outB bytes.Buffer
	if err := run(optsA, &outA); err != nil {
		t.Fatal(err)
	}
	csvOptsA := optsA
	csvOptsA.exp = export.Flags{MetricsOut: pathsA[1]}
	if err := run(csvOptsA, &outA); err != nil {
		t.Fatal(err)
	}
	if err := run(optsB, &outB); err != nil {
		t.Fatal(err)
	}
	csvOptsB := optsB
	csvOptsB.exp = export.Flags{MetricsOut: pathsB[1]}
	if err := run(csvOptsB, &outB); err != nil {
		t.Fatal(err)
	}

	// Console comparison skips the confirmation lines (they embed the
	// per-run temp paths); everything else must match byte for byte.
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "written to") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if strip(outA.String()) != strip(outB.String()) {
		t.Fatalf("console output diverged:\n%s\nvs\n%s", outA.String(), outB.String())
	}
	for i := range pathsA {
		a, err := os.ReadFile(pathsA[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pathsB[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 {
			t.Fatalf("artifact %s empty", pathsA[i])
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("artifact %s differs between same-seed runs", filepath.Base(pathsA[i]))
		}
	}

	// The report must carry the acceptance floor of distinct timelines.
	csv, err := os.ReadFile(pathsA[3])
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]bool{}
	for _, line := range strings.Split(string(csv), "\n")[1:] {
		if i := strings.IndexByte(line, ','); i > 0 {
			series[line[:i]] = true
		}
	}
	if len(series) < 6 {
		t.Fatalf("report CSV has %d distinct series, want >= 6: %v", len(series), series)
	}
	html, err := os.ReadFile(pathsA[2])
	if err != nil {
		t.Fatal(err)
	}
	for name := range series {
		if !strings.Contains(string(html), name) {
			t.Fatalf("report HTML missing sampled series %q", name)
		}
	}
	// The byte-compare above therefore also pins the attribution sections:
	// make sure they are actually in the report, not vacuously absent.
	for _, want := range []string{"Component breakdown", "Slowest requests"} {
		if !strings.Contains(string(html), want) {
			t.Fatalf("report HTML missing attribution section %q", want)
		}
	}
	anatomy, err := os.ReadFile(pathsA[5])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(anatomy), "id,kind,offset,size") {
		t.Fatalf("attribution CSV header wrong: %q", strings.SplitN(string(anatomy), "\n", 2)[0])
	}
}

func TestReplayNetProfileStaging(t *testing.T) {
	var out bytes.Buffer
	err := run(options{
		file: writeTestTrace(t), cfgName: "CNL-UFS", cellName: "SLC",
		qd: 32, seed: 7, netProfile: "lossy",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "staging (net profile lossy)") {
		t.Errorf("output missing staging line:\n%s", out.String())
	}

	// The default clean fabric must not add a staging line.
	var clean bytes.Buffer
	err = run(options{
		file: writeTestTrace(t), cfgName: "CNL-UFS", cellName: "SLC",
		qd: 32, seed: 7,
	}, &clean)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "staging") {
		t.Errorf("clean replay grew a staging line:\n%s", clean.String())
	}

	if err := run(options{
		file: writeTestTrace(t), cfgName: "CNL-UFS", cellName: "SLC",
		qd: 32, netProfile: "bogus",
	}, &out); err == nil {
		t.Fatal("unknown net profile accepted")
	}
}

// TestDurableReportSurface pins the crash-consistency acceptance criterion
// on the artifact surface: without -durable-ckpt the report carries no
// trace of the durable-metadata machinery (no journal/checkpoint series,
// no meta-journal attribution component), and with it set the journal and
// checkpoint series appear.
func TestDurableReportSurface(t *testing.T) {
	file := writeTestTrace(t)
	render := func(durable int64) string {
		dir := t.TempDir()
		opts := options{
			file: file, cfgName: "CNL-EXT4", cellName: "TLC", qd: 32, seed: 7,
			durableCkpt: durable,
			exp: export.Flags{
				ReportOut: filepath.Join(dir, "report.html"),
				SampleUS:  100,
				Attrib:    true,
			},
		}
		var out bytes.Buffer
		if err := run(opts, &out); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(opts.exp.ReportOut)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	off := render(0)
	for _, s := range []string{"ftl.journal", "ftl.ckpt", "meta-journal"} {
		if strings.Contains(off, s) {
			t.Fatalf("durable-off report mentions %q", s)
		}
	}
	on := render(64)
	for _, s := range []string{"ftl.journal_pages", "ftl.ckpt_pages"} {
		if !strings.Contains(on, s) {
			t.Fatalf("durable-on report missing %q", s)
		}
	}
}
