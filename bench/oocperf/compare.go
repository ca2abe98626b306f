package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkDef is the part of BENCHMARK.json the benchmark reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (benchmarkDef, error) {
	var b benchmarkDef
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// loadRecords reads a -record file: one JSON record per line.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Verdicts of a compared pair (choosing-metrics guide §6.5).
const (
	agrees     = "agrees"
	disagrees  = "disagrees"
	unresolved = "unresolved"
)

// verdict compares B's runs of one metric against A's. B agrees when its
// median is no worse than A's by more than bound and disagrees when it is.
// When either side's run-to-run spread (IQR over median) exceeds the bound
// the pair is unresolved, unless every B run reads better than every A run.
func verdict(a, b []float64, better string, bound float64) (string, error) {
	sa, err := relIQR(a)
	if err != nil {
		return "", fmt.Errorf("A: %w", err)
	}
	sb, err := relIQR(b)
	if err != nil {
		return "", fmt.Errorf("B: %w", err)
	}
	lower := better == "lower"
	if max(sa, sb) > bound {
		if lower && slices.Max(b) < slices.Min(a) || !lower && slices.Min(b) > slices.Max(a) {
			return agrees, nil
		}
		return unresolved, nil
	}
	if worsening(median(a), median(b), lower) > bound {
		return disagrees, nil
	}
	return agrees, nil
}

// worsening is how much worse b is than a, as a share of a.
func worsening(a, b float64, lower bool) float64 {
	if lower {
		return (b - a) / a
	}
	return (a - b) / a
}

// runCompare prints, for each workload and end-to-end metric, both sides'
// medians and spreads and the verdict. It fails if any pair disagrees.
func runCompare(benchPath, aPath, bPath string, w io.Writer) error {
	def, err := loadBenchmark(benchPath)
	if err != nil {
		return err
	}
	a, err := loadRecords(aPath)
	if err != nil {
		return err
	}
	b, err := loadRecords(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %-18s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "A median", "A IQR", "B median", "B IQR", "B vs A", "bound", "verdict")
	var failed []string
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			v, err := verdict(va, vb, m.Better, m.Bound)
			if err != nil {
				return fmt.Errorf("%s %s: %w", wl.Name, m.Name, err)
			}
			ia, _ := relIQR(va)
			ib, _ := relIQR(vb)
			ma, mb := median(va), median(vb)
			fmt.Fprintf(w, "%-20s %-18s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma, 100*ia, mb, 100*ib, 100*(mb-ma)/ma, 100*m.Bound, v)
			if v == disagrees {
				failed = append(failed, wl.Name+" "+m.Name)
			}
		}
	}
	for _, side := range []struct {
		name string
		recs []record
	}{{"A", a}, {"B", b}} {
		runs, failedRuns := 0, 0
		for _, r := range side.recs {
			runs++
			if !r.Result.Correct || r.Result.Failed > 0 {
				failedRuns++
			}
		}
		fmt.Fprintf(w, "%s: %d runs, %d with failed cell-runs\n", side.name, runs, failedRuns)
	}
	if len(failed) > 0 {
		return fmt.Errorf("B is worse than A beyond the bound on %v", failed)
	}
	return nil
}

// values collects one metric of one workload from the end-to-end records.
func values(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
