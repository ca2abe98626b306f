package export

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oocnvm/internal/obs"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/obs/report"
	"oocnvm/internal/sim"
)

func TestRegisterParsesSharedFlags(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse([]string{
		"-trace-out", "t.json", "-metrics-out", "m.csv",
		"-report-out", "r.html", "-sample-us", "250",
	}); err != nil {
		t.Fatal(err)
	}
	if f.TraceOut != "t.json" || f.MetricsOut != "m.csv" || f.ReportOut != "r.html" || f.SampleUS != 250 {
		t.Fatalf("parsed flags = %+v", f)
	}
	if !f.Enabled() {
		t.Fatal("Enabled() = false with all exports set")
	}
	if f.Collector() == nil || f.Sampler() == nil {
		t.Fatal("collector/sampler missing when requested")
	}
	if iv := f.Sampler().Interval(); iv != 250*sim.Microsecond {
		t.Fatalf("sampler interval = %v, want 250us", iv)
	}
}

func TestDisabledFlagsBuildNothing(t *testing.T) {
	var f Flags
	if f.Enabled() {
		t.Fatal("zero Flags enabled")
	}
	if f.Collector() != nil {
		t.Fatal("collector built with no exports")
	}
	if f.Sampler() != nil {
		t.Fatal("sampler built without -report-out")
	}
	// Metrics-only runs need a collector but no sampler.
	f.MetricsOut = "m.json"
	if f.Collector() == nil {
		t.Fatal("collector missing for metrics-only run")
	}
	if f.Sampler() != nil {
		t.Fatal("sampler built for metrics-only run")
	}
}

// TestCollectorTracesOnlyForTraceOut pins that only -trace-out buys a
// tracer: every other export reads the registry alone, and a tracer nobody
// writes would record spans for nothing.
func TestCollectorTracesOnlyForTraceOut(t *testing.T) {
	for _, f := range []Flags{
		{TraceOut: "t.json"},
		{TraceOut: "t.json", MetricsOut: "m.json"},
		{MetricsOut: "m.json"},
		{ReportOut: "r.html"},
		{Attrib: true},
		{AttribOut: "a.csv"},
	} {
		col := f.Collector()
		if col == nil || col.Reg == nil {
			t.Fatalf("%+v: no registry", f)
		}
		if got, want := col.Tr != nil, f.TraceOut != ""; got != want {
			t.Errorf("%+v: collector has a tracer = %v, want %v", f, got, want)
		}
	}
}

func TestReportCSVPath(t *testing.T) {
	if got := ReportCSVPath("out/report.html"); got != "out/report.csv" {
		t.Fatalf("ReportCSVPath(html) = %q", got)
	}
	if got := ReportCSVPath("report"); got != "report.csv" {
		t.Fatalf("ReportCSVPath(bare) = %q", got)
	}
}

func TestWriteEmitsEveryArtifact(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		TraceOut:   filepath.Join(dir, "trace.json"),
		MetricsOut: filepath.Join(dir, "metrics.json"),
		ReportOut:  filepath.Join(dir, "report.html"),
		SampleUS:   100,
	}
	col := f.Collector()
	samp := f.Sampler()
	col.Span(obs.LayerSSD, "drive", "req", 0, sim.Millisecond)
	col.Count("ssd.data_bytes", 4096)
	busy := 0.0
	samp.AddGauge("ssd.queue_depth", func(sim.Time) float64 { busy++; return busy })
	samp.Advance(sim.Millisecond)

	var out bytes.Buffer
	if err := f.Write(&out, col, samp, nil, nil, report.RunInfo{
		Title:  "export test",
		Params: [][2]string{{"seed", "42"}},
	}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"trace written to", "metrics written to", "report written to",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("confirmation %q missing:\n%s", want, out.String())
		}
	}
	for _, p := range []string{
		f.TraceOut, f.MetricsOut, f.ReportOut, filepath.Join(dir, "report.csv"),
	} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("artifact missing: %v", err)
		}
		if len(b) == 0 {
			t.Fatalf("artifact %s empty", p)
		}
	}
	html, _ := os.ReadFile(f.ReportOut)
	if !strings.Contains(string(html), "ssd.queue_depth") {
		t.Fatal("report HTML missing sampled series")
	}
	csv, _ := os.ReadFile(filepath.Join(dir, "report.csv"))
	if !strings.HasPrefix(string(csv), "series,kind,t_ps,value") {
		t.Fatalf("report CSV header wrong: %q", string(csv)[:40])
	}
}

func TestWriteWithNilCollectorAndSampler(t *testing.T) {
	dir := t.TempDir()
	f := Flags{ReportOut: filepath.Join(dir, "r.html")}
	var out bytes.Buffer
	if err := f.Write(&out, nil, nil, nil, nil, report.RunInfo{Title: "empty"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(f.ReportOut); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "r.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(csv)) != "series,kind,t_ps,value" {
		t.Fatalf("nil-sampler CSV = %q", string(csv))
	}
}

func TestRecorderGating(t *testing.T) {
	var f Flags
	if f.Recorder(nil) != nil {
		t.Fatal("recorder built with no attribution output requested")
	}
	for _, set := range []func(*Flags){
		func(f *Flags) { f.Attrib = true },
		func(f *Flags) { f.AttribOut = "a.csv" },
		func(f *Flags) { f.ReportOut = "r.html" },
	} {
		g := Flags{AttribTop: 4}
		set(&g)
		if g.Recorder(nil) == nil {
			t.Fatalf("recorder missing for %+v", g)
		}
	}
	// Binding against a collector lands the attribution histograms in its
	// registry.
	g := Flags{Attrib: true, AttribTop: 4}
	col := obs.NewCollector()
	rec := g.Recorder(col)
	rec.Begin(0, 0, 4096, 0)
	rec.Note(attrib.Queue, sim.Microsecond)
	rec.Commit(sim.Microsecond)
	found := false
	for _, h := range col.Reg.Snapshot().Histograms {
		if h.Name == "attrib.e2e" {
			found = true
		}
	}
	if !found {
		t.Fatal("attrib.e2e histogram not bound into the collector registry")
	}
}

func TestWriteAttributionArtifacts(t *testing.T) {
	dir := t.TempDir()
	f := Flags{Attrib: true, AttribOut: filepath.Join(dir, "anatomy.csv"), AttribTop: 4}
	rec := f.Recorder(nil)
	rec.Begin(0, 0, 4096, 0)
	rec.Note(attrib.Queue, 2*sim.Microsecond)
	rec.Note(attrib.LinkXfer, sim.Microsecond)
	rec.Commit(3 * sim.Microsecond)

	var out bytes.Buffer
	if err := f.Write(&out, nil, nil, rec, nil, report.RunInfo{Title: "attrib"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "latency attribution") {
		t.Fatalf("breakdown table missing from -attrib output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "attribution written to") {
		t.Fatalf("CSV confirmation missing:\n%s", out.String())
	}
	csv, err := os.ReadFile(f.AttribOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "id,kind,offset,size,arrive_ps,end_ps,latency_ps,queue_ps") {
		t.Fatalf("attribution CSV header wrong: %q", strings.SplitN(string(csv), "\n", 2)[0])
	}
	if lines := strings.Count(strings.TrimSpace(string(csv)), "\n"); lines != 1 {
		t.Fatalf("attribution CSV rows = %d, want 1", lines)
	}
}

func TestStartProfilesWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
	}
	stop, err := f.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{f.CPUProfile, f.MemProfile} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if len(b) == 0 {
			t.Fatalf("profile %s empty", p)
		}
	}
	// No profiles requested: stop is a no-op that must not error.
	var g Flags
	stop, err = g.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilesRejectsNegativeFlags(t *testing.T) {
	for flag, f := range map[string]Flags{
		"-sample-us":  {SampleUS: -1},
		"-attrib-top": {AttribTop: -4},
	} {
		if _, err := f.StartProfiles(); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("%s: err = %v, want an error naming the flag", flag, err)
		}
	}
	// Zero keeps its default meaning.
	stop, err := (&Flags{}).StartProfiles()
	if err != nil {
		t.Fatalf("zero flags rejected: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterOnSeparateFlagSets pins that two commands can each register
// the full flag surface on their own FlagSet without a duplicate-definition
// panic, and that a third can register just the hostperf pair.
func TestRegisterOnSeparateFlagSets(t *testing.T) {
	var a, b, h Flags
	fsA := flag.NewFlagSet("a", flag.ContinueOnError)
	fsB := flag.NewFlagSet("b", flag.ContinueOnError)
	a.Register(fsA)
	b.Register(fsB)
	fsC := flag.NewFlagSet("c", flag.ContinueOnError)
	h.RegisterHost(fsC)
	if err := fsA.Parse([]string{"-hostperf", "-hostperf-out", "h.json"}); err != nil {
		t.Fatal(err)
	}
	if !a.HostPerf || a.HostPerfOut != "h.json" {
		t.Fatalf("hostperf flags not parsed: %+v", a)
	}
	if b.HostPerf || b.HostPerfOut != "" {
		t.Fatalf("flag sets leaked into each other: %+v", b)
	}
	if err := fsC.Parse([]string{"-hostperf"}); err != nil {
		t.Fatal(err)
	}
	if !h.HostPerf {
		t.Fatalf("RegisterHost flags not parsed: %+v", h)
	}
	if fsC.Lookup("hostperf-out") == nil || fsC.Lookup("trace-out") != nil {
		t.Fatal("RegisterHost must install exactly the hostperf pair")
	}
	// replay, nvmsim and simcheck share this text and have no matrix.
	if u := fsC.Lookup("hostperf").Usage; strings.Contains(u, "matrix") {
		t.Errorf("shared -hostperf usage names a matrix: %q", u)
	}
}

func TestHostCollectorGating(t *testing.T) {
	var f Flags
	if f.Host() != nil {
		t.Fatal("host collector built with no hostperf flags")
	}
	g := Flags{HostPerf: true}
	if g.Host() == nil {
		t.Fatal("host collector missing for -hostperf")
	}
	h := Flags{HostPerfOut: "h.json"}
	if h.Host() == nil {
		t.Fatal("host collector missing for -hostperf-out")
	}
}

func TestWriteHostPerfArtifacts(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		HostPerf:    true,
		HostPerfOut: filepath.Join(dir, "host.csv"),
		ReportOut:   filepath.Join(dir, "r.html"),
	}
	host := f.Host()
	end := host.Phase("unit phase")
	end()

	var out bytes.Buffer
	if err := f.Write(&out, nil, nil, nil, host, report.RunInfo{Title: "host"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "host performance") {
		t.Fatalf("-hostperf table missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "host performance written to") {
		t.Fatalf("file confirmation missing:\n%s", out.String())
	}
	csv, err := os.ReadFile(f.HostPerfOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "section,name,wall_ns") {
		t.Fatalf("host CSV header wrong: %q", strings.SplitN(string(csv), "\n", 2)[0])
	}
	html, err := os.ReadFile(f.ReportOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "Host performance") {
		t.Fatal("report missing the Host performance section")
	}
	if !strings.Contains(string(html), "unit phase") {
		t.Fatal("report missing the recorded phase row")
	}

	// JSON output with a non-.csv suffix.
	g := Flags{HostPerfOut: filepath.Join(dir, "host.json")}
	ghost := g.Host()
	out.Reset()
	if err := g.Write(&out, nil, nil, nil, ghost, report.RunInfo{}); err != nil {
		t.Fatal(err)
	}
	j, err := os.ReadFile(g.HostPerfOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(j), "\"total\"") {
		t.Fatalf("host JSON missing totals: %s", j)
	}
}

func TestWriteHostPerfInvalidPathErrors(t *testing.T) {
	f := Flags{HostPerfOut: filepath.Join(t.TempDir(), "no-such-dir", "h.json")}
	host := f.Host()
	var out bytes.Buffer
	if err := f.Write(&out, nil, nil, nil, host, report.RunInfo{}); err == nil {
		t.Fatal("unwritable -hostperf-out accepted")
	}
}

// TestReportBytesIdenticalWithoutHost pins the acceptance criterion that
// enabling the hostperf machinery in the binary changes nothing unless the
// flag is set: a nil host collector must leave report bytes exactly as
// before.
func TestReportBytesIdenticalWithoutHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name string) []byte {
		f := Flags{ReportOut: filepath.Join(dir, name)}
		var out bytes.Buffer
		if err := f.Write(&out, nil, nil, nil, nil, report.RunInfo{Title: "same"}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(f.ReportOut)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := write("a.html")
	b := write("b.html")
	if !bytes.Equal(a, b) {
		t.Fatal("same-run reports differ")
	}
	if bytes.Contains(a, []byte("Host performance")) {
		t.Fatal("Host performance section rendered without a host collector")
	}
}

// TestHostFlagsWrite covers a command that registers only the hostperf
// pair (RegisterHost) and writes through Flags with no other collector.
func TestHostFlagsWrite(t *testing.T) {
	var hf Flags
	var out bytes.Buffer
	// Nil collector: no-op.
	if err := hf.Write(&out, nil, nil, nil, nil, report.RunInfo{}); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("nil host wrote %q", out.String())
	}
	hf = Flags{HostPerf: true}
	host := hf.Host()
	end := host.Phase("check")
	end()
	if err := hf.Write(&out, nil, nil, nil, host, report.RunInfo{}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"host performance", "phase", "check", "total"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("phase table missing %q:\n%s", want, out.String())
		}
	}
}
