package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oocnvm/internal/trace"
)

func TestTracegenSmoke(t *testing.T) {
	dir := t.TempDir()
	posixF := filepath.Join(dir, "posix.bin")
	blockF := filepath.Join(dir, "block.bin")
	var out, errw bytes.Buffer
	if err := run(16, 4, 1, "EXT4", posixF, blockF, false, false, 0, 42, &out, &errw); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"posix ops:", "EXT4 block ops:", "sequential"} {
		if !strings.Contains(errw.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errw.String())
		}
	}
	f, err := os.Open(blockF)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ops, err := trace.ReadBlockTrace(f)
	if err != nil {
		t.Fatalf("block trace unreadable: %v", err)
	}
	if len(ops) == 0 {
		t.Fatal("block trace is empty")
	}
}

func TestTracegenFig6(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(16, 4, 1, "GPFS", "", "", false, true, 8, 42, &out, &errw); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Len() == 0 {
		t.Fatal("-fig6 printed nothing")
	}
}

func TestTracegenRejectsUnknownFS(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(16, 4, 1, "NTFS", "", "", false, false, 0, 42, &out, &errw); err == nil {
		t.Fatal("unknown file system accepted")
	}
}

// TestTracegenRejectsBadFlags pins that a -fig6 table with no rows is an
// error naming -n, while -n stays free without -fig6.
func TestTracegenRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fig6    bool
		entries int
		ok      bool
	}{
		{"baseline", true, 8, true},
		{"no rows without -fig6", false, 0, true},
		{"zero rows", true, 0, false},
		{"negative rows", true, -5, false},
	} {
		var out, errw bytes.Buffer
		err := run(16, 4, 1, "GPFS", "", "", false, tc.fig6, tc.entries, 42, &out, &errw)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s rejected: %v", tc.name, err)
		case !tc.ok && err == nil:
			t.Errorf("%s accepted", tc.name)
		case !tc.ok && !strings.Contains(err.Error(), "-n"):
			t.Errorf("%s: error %q does not name -n", tc.name, err)
		}
	}
}
