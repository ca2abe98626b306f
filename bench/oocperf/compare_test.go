package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", tight, tight, "lower", agrees},
		{"within bound", tight, scale(tight, 1.04), "lower", agrees},
		{"slower", tight, scale(tight, 1.2), "lower", disagrees},
		{"faster", tight, scale(tight, 0.8), "lower", agrees},
		{"lower throughput", tight, scale(tight, 0.8), "higher", disagrees},
		{"higher throughput", tight, scale(tight, 1.2), "higher", agrees},
		{"noisy", tight, []float64{0.8, 1.0, 1.3, 1.1, 0.9}, "lower", unresolved},
		{"noisy but always better", []float64{2.0, 2.5, 3.0, 2.2}, []float64{1.0, 1.3, 1.5, 1.1}, "lower", agrees},
	} {
		got, err := verdict(tc.a, tc.b, tc.better, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	if _, err := verdict([]float64{1}, tight, "lower", 0.1); err == nil {
		t.Error("a single run did not fail")
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{
		"workloads": [{"name": "w", "why": "test"}],
		"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, walls ...float64) string {
		path := filepath.Join(dir, name)
		for i, w := range walls {
			r := record{Workload: "w", Seed: uint64(i), Result: output{Correct: true, Attempted: 1,
				Metrics: map[string]value{"wall_s": {w, "s"}}}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		// Per-layer records are ignored.
		if err := appendRecord(path, record{Workload: "w", Trace: 1, Result: output{Metrics: map[string]value{"wall_s": {99, "s"}}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", 1.00, 1.01, 0.99)
	same := write("same.jsonl", 1.01, 1.00, 1.00)
	slow := write("slow.jsonl", 1.30, 1.31, 1.29)

	var out bytes.Buffer
	if err := runCompare(bench, a, same, &out); err != nil {
		t.Fatalf("same commit: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), agrees) {
		t.Errorf("same commit does not agree:\n%s", out.String())
	}
	out.Reset()
	if err := runCompare(bench, a, slow, &out); err == nil || !strings.Contains(out.String(), disagrees) {
		t.Errorf("30%% slower: err %v\n%s", err, out.String())
	}
}

// TestMetricsMatchBenchmarkJSON keeps the workloads and metrics the
// program reports in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	def, err := loadBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var gotW, wantW []string
	for _, w := range workloads() {
		wantW = append(wantW, w.name+": "+w.why)
	}
	for _, w := range def.Workloads {
		gotW = append(gotW, w.Name+": "+w.Why)
	}
	if strings.Join(gotW, "\n") != strings.Join(wantW, "\n") {
		t.Errorf("BENCHMARK.json workloads:\n%s\nprogram:\n%s", strings.Join(gotW, "\n"), strings.Join(wantW, "\n"))
	}
	var got, want []string
	for _, m := range def.EndToEnd {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range endToEnd {
		want = append(want, m.name+" "+m.unit+" "+m.better)
	}
	for _, m := range def.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit+" "+m.better)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("BENCHMARK.json metrics:\n%s\nprogram:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
