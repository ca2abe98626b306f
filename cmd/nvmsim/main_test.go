package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"oocnvm/internal/obs/export"
	"oocnvm/internal/ssd"
)

func TestNvmsimSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run("MLC", "sdr", 2, 8, true, "seq", "read", 256, 4, 0, 32, 1, export.Flags{}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{
		"device: MLC",
		"workload: 4 x 256 KiB seq read",
		"bandwidth:",
		"parallelism: PAL1",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestNvmsimWritePattern(t *testing.T) {
	var out bytes.Buffer
	if err := run("PCM", "ddr", 3, 16, false, "rand", "write", 64, 4, 0, 8, 7, export.Flags{}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "workload: 4 x 64 KiB rand write") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestNvmsimRejectsBadFlags(t *testing.T) {
	type flags struct {
		cell, bus     string
		gen, lanes    int
		pattern, kind string
		reqKiB        int64
		count         int
	}
	try := func(f flags) error {
		var out bytes.Buffer
		return run(f.cell, f.bus, f.gen, f.lanes, true, f.pattern, f.kind, f.reqKiB, f.count, 0, 8, 1, export.Flags{}, &out)
	}
	good := flags{"SLC", "sdr", 2, 8, "seq", "read", 64, 1}
	if err := try(good); err != nil {
		t.Fatalf("baseline flags rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*flags)
		flag   string // the flag the error must name; empty for none
	}{
		{"unknown cell", func(f *flags) { f.cell = "QLC" }, ""},
		{"unknown bus", func(f *flags) { f.bus = "qdr" }, ""},
		{"pcie gen 7", func(f *flags) { f.gen = 7 }, "-pcie"},
		{"zero lanes", func(f *flags) { f.lanes = 0 }, "-lanes"},
		{"trim op", func(f *flags) { f.kind = "trim" }, "-op"},
		{"zig pattern", func(f *flags) { f.pattern = "zig" }, "-pattern"},
		{"zero request", func(f *flags) { f.reqKiB = 0 }, "-req"},
		{"request above capacity", func(f *flags) { f.reqKiB = 999999999 }, "-req"},
		{"random request above capacity", func(f *flags) { f.pattern, f.reqKiB = "rand", 999999999 }, "-req"},
		{"zero requests", func(f *flags) { f.count = 0 }, "-n"},
	} {
		f := good
		tc.mutate(&f)
		if err := try(f); err == nil {
			t.Errorf("%s accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
	}
}

// TestNvmsimFailsOnDriveError pins that a sequential run whose last request
// crosses the end of the device fails rather than reporting the bandwidth of
// the requests that fit.
func TestNvmsimFailsOnDriveError(t *testing.T) {
	if testing.Short() {
		t.Skip("reads the whole 64 GiB SLC device")
	}
	var out bytes.Buffer
	// Request 22369 starts 1,864 KiB before the end and reads 3,000 KiB.
	err := run("SLC", "sdr", 2, 8, true, "seq", "read", 3000, 22370, 0, 32, 1, export.Flags{}, &out)
	if !errors.Is(err, ssd.ErrOutOfRange) {
		t.Fatalf("error = %v, want ssd.ErrOutOfRange", err)
	}
	if strings.Contains(out.String(), "bandwidth") {
		t.Errorf("failed run printed a bandwidth:\n%s", out.String())
	}
}
