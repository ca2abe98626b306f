package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/obs/report"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/ooc"
)

// The identity golden files pin the engine's observable output bit-for-bit:
// the result table, the attribution CSV, and (by hash, to keep testdata
// small) the Chrome trace and HTML report of one fixed-seed cell. They were
// generated by the pre-pooling engine, so a pooled engine that passes is
// provably byte-identical to the seed — the acceptance bar for the
// zero-alloc refactor. Regenerate only for a deliberate output change:
//
//	go test ./internal/experiment -run TestGoldenArtifacts -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the identity golden files")

// goldenOptions is a small fixed-seed workload so the artifacts stay cheap
// to produce and the CSV/table files stay reviewable.
func goldenOptions() Options {
	o := DefaultOptions()
	o.Workload = ooc.Workload{MatrixBytes: 16 << 20, PanelBytes: 4 << 20, Applications: 1}
	o.MeasureRemaining = false
	return o
}

// goldenArtifacts runs one CNL-EXT4/TLC cell with every export surface
// attached and returns the four artifacts.
func goldenArtifacts(t *testing.T) (result string, csv, trace, html []byte) {
	t.Helper()
	col := obs.NewCollector()
	rec := attrib.NewRecorder(8)
	rec.BindRegistry(col.Reg)
	opt := goldenOptions()
	opt.Obs = col
	opt.Attrib = rec
	cfg, err := FindConfig("CNL-EXT4")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(cfg, nvm.TLC, opt)
	if err != nil {
		t.Fatal(err)
	}
	result = m.Achieved.String()
	sum := rec.Summary()
	var csvBuf bytes.Buffer
	if err := sum.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	col.SyncTracerMetrics()
	var traceBuf bytes.Buffer
	if err := col.Tr.WriteChromeJSON(&traceBuf); err != nil {
		t.Fatal(err)
	}
	var htmlBuf bytes.Buffer
	info := report.RunInfo{
		Title:  "golden identity cell",
		Params: [][2]string{{"config", cfg.Name}, {"cell", nvm.TLC.String()}},
		Attrib: &sum,
	}
	if err := report.WriteHTML(&htmlBuf, info, col.Reg.Snapshot(), timeseries.Dump{}); err != nil {
		t.Fatal(err)
	}
	return result, csvBuf.Bytes(), traceBuf.Bytes(), htmlBuf.Bytes()
}

func hashHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func goldenPath(name string) string { return filepath.Join("testdata", name) }

func checkGoldenFile(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden once): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s drifted from the pre-pooling golden output:\n--- want\n%s\n--- got\n%s",
			name, want, got)
	}
}

// TestGoldenArtifacts pins the result table and attribution CSV byte-for-byte
// and the Chrome trace + HTML report by content hash against artifacts
// generated before the pooled engine landed.
func TestGoldenArtifacts(t *testing.T) {
	result, csv, traceJSON, html := goldenArtifacts(t)
	checkGoldenFile(t, "golden_result.txt", []byte(result))
	checkGoldenFile(t, "golden_attrib.csv", csv)
	hashes := fmt.Sprintf("trace %s\nhtml %s\n", hashHex(traceJSON), hashHex(html))
	checkGoldenFile(t, "golden_hashes.txt", []byte(hashes))
}

// TestGoldenArtifactsRepeatable proves the artifacts are a pure function of
// the seed within one process: two fresh runs emit identical bytes.
func TestGoldenArtifactsRepeatable(t *testing.T) {
	r1, c1, t1, h1 := goldenArtifacts(t)
	r2, c2, t2, h2 := goldenArtifacts(t)
	if r1 != r2 {
		t.Errorf("result tables differ between same-seed runs:\n%s\nvs\n%s", r1, r2)
	}
	if !bytes.Equal(c1, c2) {
		t.Error("attribution CSVs differ between same-seed runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("Chrome traces differ between same-seed runs")
	}
	if !bytes.Equal(h1, h2) {
		t.Error("HTML reports differ between same-seed runs")
	}
}

// TestMatrixWorkerIdentity proves measurements are independent of the
// worker-pool size: the full matrix at 1, 4 and NumCPU workers yields
// identical ssd.Results (the comparison is ==; Result is a pointer-free
// value type, so identity here is bit-identity).
func TestMatrixWorkerIdentity(t *testing.T) {
	opt := goldenOptions()
	configs := FileSystemConfigs()[:3]
	cells := []nvm.CellType{nvm.TLC, nvm.PCM}

	counts := []int{1, 4, runtime.NumCPU()}
	var base []Measurement
	for _, n := range counts {
		opt.Workers = n
		got, err := Matrix(configs, cells, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		if base == nil {
			base = got
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d measurements, want %d", n, len(got), len(base))
		}
		for i := range got {
			if got[i].Config.Name != base[i].Config.Name || got[i].Cell != base[i].Cell {
				t.Fatalf("workers=%d: cell order diverged at %d", n, i)
			}
			if got[i].Achieved != base[i].Achieved {
				t.Errorf("workers=%d: %s/%s achieved result differs from workers=1",
					n, got[i].Config.Name, got[i].Cell)
			}
			if got[i].MediaCapableMBps != base[i].MediaCapableMBps {
				t.Errorf("workers=%d: %s/%s media-capable differs from workers=1",
					n, got[i].Config.Name, got[i].Cell)
			}
		}
	}
}

// TestPaperScaleTraceHash pins the Chrome trace of a paper-scale
// CNL-EXT4/TLC cell, which overflows the tracer's cap: the 2^18 kept spans
// plus the dropped-events marker, by length and SHA-256. The hash comes
// from the encoding/json reference writer in internal/obs's tests.
func TestPaperScaleTraceHash(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a paper-scale evaluation cell")
	}
	opt := DefaultOptions()
	opt.MeasureRemaining = false
	opt.Obs = obs.NewCollector()
	cfg, err := FindConfig("CNL-EXT4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, nvm.TLC, opt); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := opt.Obs.Tr.WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if kept, dropped := opt.Obs.Tr.Len(), opt.Obs.Tr.Dropped(); kept != 262_144 || dropped != 805_560 {
		t.Errorf("kept %d spans and dropped %d, want 262144 and 805560", kept, dropped)
	}
	const wantLen, wantHash = 29_154_449, "225e8bcbaf21de756806812bf56bb0782acb14ba7532c8591d065e0f8342e5c4"
	if b.Len() != wantLen || hashHex(b.Bytes()) != wantHash {
		t.Errorf("paper-scale trace is %d bytes with SHA-256 %s, want %d bytes with %s",
			b.Len(), hashHex(b.Bytes()), wantLen, wantHash)
	}
}

// TestTracedMatrixRepeatable pins that a matrix with a shared collector
// exports the same bytes on every run whatever Workers says: concurrent
// cells would race for the tracer's span cap, tie on shared track names and
// overwrite each other's gauges. The registry-only case is what
// -metrics-out without -trace-out attaches; the trace-only one must also
// close out every cell.
func TestTracedMatrixRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each observed matrix twice")
	}
	configs := FileSystemConfigs()[:3]
	cells := []nvm.CellType{nvm.TLC, nvm.PCM}
	for _, tc := range []struct {
		name string
		col  func() *obs.Collector
	}{
		{"traced", obs.NewCollector},
		{"registry-only", func() *obs.Collector { return &obs.Collector{Reg: obs.NewRegistry()} }},
		{"trace-only", func() *obs.Collector { return &obs.Collector{Tr: obs.NewTracer()} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var metrics, traces [2][]byte
			for i := range metrics {
				opt := TestOptions()
				opt.Obs = tc.col()
				opt.Workers = 4
				if _, err := Matrix(configs, cells, opt); err != nil {
					t.Fatal(err)
				}
				var m, tr bytes.Buffer
				if opt.Obs.Reg != nil {
					if err := opt.Obs.Reg.WriteJSON(&m); err != nil {
						t.Fatal(err)
					}
				}
				if opt.Obs.Tr != nil {
					if err := opt.Obs.Tr.WriteChromeJSON(&tr); err != nil {
						t.Fatal(err)
					}
				}
				metrics[i], traces[i] = m.Bytes(), tr.Bytes()
			}
			if !bytes.Equal(metrics[0], metrics[1]) {
				t.Errorf("two observed matrix runs wrote different metrics: SHA-256 %s and %s",
					hashHex(metrics[0]), hashHex(metrics[1]))
			}
			if !bytes.Equal(traces[0], traces[1]) {
				t.Errorf("two traced matrix runs wrote different traces: SHA-256 %s and %s",
					hashHex(traces[0]), hashHex(traces[1]))
			}
		})
	}
}
