package check

import (
	"bytes"
	"strings"
	"testing"

	"oocnvm/internal/experiment"
	"oocnvm/internal/ftl"
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

// TestCrashStudyZeroIntervalIsFTLDefault pins StudyRow's zero interval to
// the FTL's default checkpoint interval, durable metadata and all: the row
// equals the one the default's value yields in every field but the interval
// it names.
func TestCrashStudyZeroIntervalIsFTLDefault(t *testing.T) {
	opt := experiment.TestOptions()
	opt.Workload.PsiBytes = 2 * opt.Workload.PanelBytes
	opt.Workload.Applications = 4
	def := ftl.DefaultCheckpointPages(opt.Geometry, nvm.Params(nvm.MLC))
	rows, err := CrashStudy(findConfig(t, "CNL-EXT4"), nvm.MLC, opt, []int64{0, def})
	if err != nil {
		t.Fatal(err)
	}
	zero, named := rows[0], rows[1]
	if zero.CheckpointEvery != 0 || named.CheckpointEvery != def {
		t.Fatalf("rows name intervals %d and %d, want 0 and %d", zero.CheckpointEvery, named.CheckpointEvery, def)
	}
	if named.JournalPages == 0 || named.MTTR <= 0 {
		t.Errorf("default-interval row %+v journaled nothing or recovered for free", named)
	}
	zero.CheckpointEvery = def
	if zero != named {
		t.Errorf("zero-interval row\n%+v\ndiffers from the default-interval row\n%+v", zero, named)
	}
}

// TestCrashStudyNeedsFTL pins that a UFS row, whose Direct translator keeps
// no mapping metadata to crash and recover, fails the study instead of
// measuring an FTL the row does not have.
func TestCrashStudyNeedsFTL(t *testing.T) {
	opt := experiment.TestOptions()
	if _, err := CrashStudy(findConfig(t, "CNL-UFS"), nvm.MLC, opt, []int64{128}); err == nil ||
		!strings.Contains(err.Error(), "needs an FTL") {
		t.Fatalf("study on CNL-UFS returned %v, want an error naming the missing FTL", err)
	}
}
