package experiment

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/obs/hostperf"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/sim"
)

// TestCellAllocCeiling pins the heap objects one whole evaluation cell
// allocates, from trace generation through the drained replay, on TestOptions.
// Each row drives a different translation path: CNL-EXT4/TLC the FTL,
// CNL-UFS/PCM the UFS transform and ssd.Direct, ION-GPFS/TLC GPFS striping
// over the ION link. The steady-state AllocsPerRun pins catch a single new
// allocation on one hot path; these ceilings catch growth anywhere else in a
// cell. Find the culprit with -memprofile. The rows run serially because
// runtime.MemStats counts the whole process. The observed row attaches what
// replay -attrib -report-out -trace-out attaches (a collector, a recorder
// and a 100 µs sampler) and counts the Chrome trace write as well.
func TestCellAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling runs a full evaluation cell")
	}
	for _, tc := range []struct {
		config   string
		cell     nvm.CellType
		observed bool
		ceiling  uint64 // measured counts in comments
	}{
		{"CNL-EXT4", nvm.TLC, false, 20_000}, // ~4.7k
		{"CNL-UFS", nvm.PCM, false, 2_850},   // ~1.9k
		{"ION-GPFS", nvm.TLC, false, 6_950},  // ~4.7k
		{"CNL-EXT4", nvm.TLC, true, 14_000},  // ~9.4k
	} {
		name := tc.config + "/" + tc.cell.String()
		if tc.observed {
			name += "/observed"
		}
		t.Run(name, func(t *testing.T) {
			cfg, err := FindConfig(tc.config)
			if err != nil {
				t.Fatal(err)
			}
			opt := TestOptions()
			opt.MeasureRemaining = false
			if tc.observed {
				opt.Obs = obs.NewCollector()
				opt.Attrib = attrib.NewRecorder(16)
				opt.Attrib.BindRegistry(opt.Obs.Reg)
				opt.Sampler = timeseries.NewSampler(100*sim.Microsecond, 0)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(cfg, tc.cell, opt); err != nil {
				t.Fatal(err)
			}
			if tc.observed {
				if err := opt.Obs.Tr.WriteChromeJSON(io.Discard); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			got := after.Mallocs - before.Mallocs
			t.Logf("allocated %d objects", got)
			if got > tc.ceiling {
				t.Errorf("evaluation cell allocated %d objects, ceiling %d", got, tc.ceiling)
			}
		})
	}
}

// TestMatrixSerializesUnderAttribution proves the host-perf measurement mode
// (Options.Host set, which runs the cells one at a time whatever Workers
// says) keeps matrix results identical to the concurrent default: same seed,
// same cells, same measurements, with every cell phase recorded.
func TestMatrixSerializesUnderAttribution(t *testing.T) {
	opt := TestOptions()
	opt.MeasureRemaining = false
	configs := FileSystemConfigs()[:3]
	cells := []nvm.CellType{nvm.TLC}

	plain, err := Matrix(configs, cells, opt)
	if err != nil {
		t.Fatal(err)
	}

	host := hostperf.NewCollector()
	opt.Host = host
	opt.Workers = 4
	serial, err := Matrix(configs, cells, opt)
	if err != nil {
		t.Fatal(err)
	}

	if len(plain) != len(serial) {
		t.Fatalf("matrix sizes differ: %d vs %d", len(plain), len(serial))
	}
	for i := range plain {
		if plain[i].AchievedMBps() != serial[i].AchievedMBps() {
			t.Errorf("cell %d: achieved %v (concurrent) != %v (attributed)",
				i, plain[i].AchievedMBps(), serial[i].AchievedMBps())
		}
	}
	s := host.Summary()
	if len(s.Phases) != len(configs)*len(cells) {
		t.Errorf("recorded %d phases, want %d", len(s.Phases), len(configs)*len(cells))
	}
	// One worker takes the jobs in submission order, so the phases land in
	// (config-major, cell-minor) order; concurrent workers would race.
	var want []string
	for _, cfg := range configs {
		for _, cell := range cells {
			want = append(want, fmt.Sprintf("cell %s/%s", cfg.Name, cell))
		}
	}
	for i, p := range s.Phases {
		if i < len(want) && p.Name != want[i] {
			t.Errorf("phase %d is %q, want %q (cells did not run one at a time)", i, p.Name, want[i])
		}
		if p.AllocObjs == 0 || p.Wall <= 0 {
			t.Errorf("phase cost empty: %+v", p)
		}
	}
}
