package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the simcheck output golden files")

// TestSimcheckGoldenOutput pins simcheck's whole report for
//
//	simcheck -episodes 2 -configs CNL-UFS,CNL-EXT4,ION-GPFS -cells MLC,TLC
//	simcheck -episodes 2 -configs CNL-UFS,CNL-EXT4,ION-GPFS -cells MLC,TLC -fault worn
//	simcheck -episodes 2 -configs CNL-UFS,CNL-EXT4,ION-GPFS -cells MLC,TLC -fault eol
//	simcheck -episodes 1 -configs CNL-EXT4,ION-GPFS -cells MLC -crash-sweep -crash-study
//
// Every number in it comes from the stack the checker builds, so a change
// to how a checked drive is assembled that moves a result shows up as a
// diff here. After an intentional change, regenerate with
//
//	go test ./cmd/simcheck -run GoldenOutput -update
func TestSimcheckGoldenOutput(t *testing.T) {
	// The flag defaults, so each golden is the command's own stdout.
	base := options{faultName: "none", netProfile: "none", seed: 1, metamorphic: true, shrink: true}
	for _, tc := range []struct {
		golden string
		mutate func(*options)
	}{
		{"episodes.golden", func(o *options) {
			o.episodes, o.configs, o.cells = 2, "CNL-UFS,CNL-EXT4,ION-GPFS", "MLC,TLC"
		}},
		{"episodes_worn.golden", func(o *options) {
			o.episodes, o.configs, o.cells, o.faultName = 2, "CNL-UFS,CNL-EXT4,ION-GPFS", "MLC,TLC", "worn"
		}},
		// eol retires superblocks, so it pins the FTL's relocation of a
		// retired superblock's pages under the oracle.
		{"episodes_eol.golden", func(o *options) {
			o.episodes, o.configs, o.cells, o.faultName = 2, "CNL-UFS,CNL-EXT4,ION-GPFS", "MLC,TLC", "eol"
		}},
		{"crash.golden", func(o *options) {
			o.episodes, o.configs, o.cells = 1, "CNL-EXT4,ION-GPFS", "MLC"
			o.crashSweep, o.crashStudy = true, true
		}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			opt := base
			tc.mutate(&opt)
			var out bytes.Buffer
			if err := run(opt, &out); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update once): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("simcheck output diverged from %s (run with -update if intentional)\ngot:\n%s\nwant:\n%s",
					path, out.String(), want)
			}
		})
	}
}
