package check

import (
	"bytes"
	"strings"
	"testing"

	"oocnvm/internal/experiment"
	"oocnvm/internal/nvm"
)

// TestCrashStudy runs the checkpoint-interval study with the options of
// `simcheck -crash-study -configs CNL-EXT4 -cells MLC`: a longer interval
// writes less metadata per host page and takes no more checkpoints, every
// point wrote host pages and paid for its recovery, and the table has one
// line per point under its header.
func TestCrashStudy(t *testing.T) {
	opt := experiment.TestOptions()
	opt.Workload.PsiBytes = 2 * opt.Workload.PanelBytes
	opt.Workload.Applications = 4
	intervals := []int64{128, 512, 2048, 8192}
	rows, err := CrashStudy(findConfig(t, "CNL-EXT4"), nvm.MLC, opt, intervals)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(intervals) {
		t.Fatalf("%d rows for %d intervals", len(rows), len(intervals))
	}
	for i, r := range rows {
		if r.CheckpointEvery != intervals[i] || r.HostPages <= 0 || r.MTTR <= 0 {
			t.Errorf("row %d: %+v; want interval %d with host pages and a recovery cost", i, r, intervals[i])
		}
		if i == 0 {
			continue
		}
		prev := rows[i-1]
		if r.MetaOverhead >= prev.MetaOverhead {
			t.Errorf("meta-WA %.4f at interval %d, not below %.4f at %d",
				r.MetaOverhead, r.CheckpointEvery, prev.MetaOverhead, prev.CheckpointEvery)
		}
		if r.Checkpoints > prev.Checkpoints {
			t.Errorf("%d checkpoints at interval %d, more than %d at %d",
				r.Checkpoints, r.CheckpointEvery, prev.Checkpoints, prev.CheckpointEvery)
		}
	}
	var out bytes.Buffer
	WriteStudy(&out, rows)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 1+len(rows) || !strings.HasPrefix(lines[0], "ckpt-every") {
		t.Errorf("WriteStudy printed %d lines, want a header and %d rows:\n%s", len(lines), len(rows), out.String())
	}
}
