package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSimcheckSmoke(t *testing.T) {
	var out bytes.Buffer
	opt := options{
		episodes: 2, configs: "CNL-UFS,ION-GPFS", cells: "MLC",
		faultName: "worn", seed: 1, metamorphic: true, shrink: true,
	}
	if err := run(opt, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"CNL-UFS/MLC",
		"ION-GPFS/MLC",
		"metamorphic checks:",
		"4 relations  0 violations",
		"4 episodes",
		"0 violations",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSimcheckRejectsUnknownNames(t *testing.T) {
	var out bytes.Buffer
	if err := run(options{episodes: 1, configs: "NOPE", cells: "MLC", faultName: "none"}, &out); err == nil {
		t.Fatal("unknown config accepted")
	}
	if err := run(options{episodes: 1, configs: "CNL-UFS", cells: "QLC", faultName: "none"}, &out); err == nil {
		t.Fatal("unknown cell accepted")
	}
	if err := run(options{episodes: 1, configs: "CNL-UFS", cells: "MLC", faultName: "bogus"}, &out); err == nil {
		t.Fatal("unknown fault profile accepted")
	}
}

// TestSimcheckRejectsBadFlags pins that a sweep which would do no work, or
// silently fall back to a default, fails naming the flag instead of
// reporting a clean pass.
func TestSimcheckRejectsBadFlags(t *testing.T) {
	good := options{episodes: 1, configs: "CNL-UFS", cells: "mlc", faultName: "none", seed: 1, ops: 64}
	var out bytes.Buffer
	if err := run(good, &out); err != nil {
		t.Fatalf("baseline flags rejected: %v\n%s", err, out.String())
	}
	for _, tc := range []struct {
		name   string
		mutate func(*options)
		flag   string
	}{
		{"zero episodes", func(o *options) { o.episodes = 0 }, "-episodes"},
		{"negative episodes", func(o *options) { o.episodes = -1 }, "-episodes"},
		{"negative ops", func(o *options) { o.ops = -5 }, "-ops"},
		{"negative crash stride", func(o *options) { o.crashEvery = -1 }, "-crash-every"},
	} {
		o := good
		tc.mutate(&o)
		if err := run(o, &out); err == nil {
			t.Errorf("%s accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
	}
}

func TestSimcheckNetProfile(t *testing.T) {
	var out bytes.Buffer
	opt := options{
		episodes: 1, configs: "CNL-UFS", cells: "MLC",
		faultName: "none", netProfile: "flaky", seed: 1,
	}
	if err := run(opt, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"network degradation scenarios:", "netfault/flaky", "0 violations"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if err := run(options{episodes: 1, configs: "CNL-UFS", cells: "MLC",
		faultName: "none", netProfile: "bogus"}, &out); err == nil {
		t.Fatal("unknown net profile accepted")
	}
}
