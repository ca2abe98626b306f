package main

import (
	"bytes"
	"strings"
	"testing"

	"oocnvm/internal/experiment"
	"oocnvm/internal/fault"
	"oocnvm/internal/ooc"
)

func testOptions() experiment.Options {
	opt := experiment.DefaultOptions()
	opt.Workload = ooc.Workload{
		MatrixBytes:  16 << 20,
		PanelBytes:   4 << 20,
		Applications: 1,
	}
	opt.Seed = 42
	return opt
}

func TestOocbenchStaticTables(t *testing.T) {
	cases := []struct {
		name, fig, table, want string
	}{
		{"table1", "", "1", "Table 1"},
		{"table2", "", "2", "Table 2"},
		{"fig1", "1", "", "Figure 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(testOptions(), tc.fig, tc.table, false, false, false, false, false, false, "", nil, &out); err != nil {
				t.Fatalf("run: %v", err)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output missing %q:\n%s", tc.want, out.String())
			}
		})
	}
}

func TestOocbenchTopology(t *testing.T) {
	var out bytes.Buffer
	if err := run(testOptions(), "", "", false, true, false, false, false, false, "", nil, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"Carver", "Carver-CNL", "preload"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestOocbenchEnergyAndDistributed(t *testing.T) {
	var out bytes.Buffer
	if err := run(testOptions(), "", "", false, false, true, false, false, false, "", nil, &out); err != nil {
		t.Fatalf("distributed: %v", err)
	}
	if !strings.Contains(out.String(), "cluster-scale OoC solve") {
		t.Errorf("distributed output unexpected:\n%s", out.String())
	}
	out.Reset()
	if err := run(testOptions(), "", "", false, false, false, true, false, false, "", nil, &out); err != nil {
		t.Fatalf("energy: %v", err)
	}
	if !strings.Contains(out.String(), "compute-local NVM") {
		t.Errorf("energy output unexpected:\n%s", out.String())
	}
}

func TestOocbenchCacheStudy(t *testing.T) {
	var out bytes.Buffer
	if err := run(testOptions(), "", "", false, false, false, false, true, false, "", nil, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "hit rate") {
		t.Errorf("cache output unexpected:\n%s", out.String())
	}
}

func TestOocbenchFigure7a(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement matrix in -short mode")
	}
	var out bytes.Buffer
	if err := run(testOptions(), "7a", "", false, false, false, false, false, false, "", nil, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"Figure 7a", "ION-GPFS", "CNL-UFS"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestOocbenchTopologyDegraded(t *testing.T) {
	var out bytes.Buffer
	opt := testOptions()
	if err := run(opt, "", "", false, true, false, false, false, false, "flaky", nil, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"degraded preload (flaky)", "degraded checkpoint drain (flaky)", "retries"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	// Same seed, same profile: the degraded lines must be reproducible.
	var again bytes.Buffer
	if err := run(opt, "", "", false, true, false, false, false, false, "flaky", nil, &again); err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if out.String() != again.String() {
		t.Error("degraded topology output not deterministic across runs")
	}
}

// TestOocbenchRejectsBadFlags pins that wear, age and durability flags that
// would silently change the answer, or change nothing because no profile
// injects faults, fail naming the flag.
func TestOocbenchRejectsBadFlags(t *testing.T) {
	worn, err := fault.ForName("worn")
	if err != nil {
		t.Fatal(err)
	}
	try := func(opt experiment.Options) error {
		var out bytes.Buffer
		return run(opt, "", "1", false, false, false, false, false, false, "", nil, &out)
	}
	good := testOptions()
	good.Fault = worn
	good.RetentionDays, good.PrecyclePE, good.DurableCheckpointPages = 30, 3000, 1024
	if err := try(good); err != nil {
		t.Fatalf("baseline flags rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*experiment.Options)
		flag   string
	}{
		{"negative retention", func(o *experiment.Options) { o.RetentionDays = -30 }, "-retention-days"},
		{"negative precycle", func(o *experiment.Options) { o.PrecyclePE = -3000 }, "-precycle"},
		{"negative checkpoint interval", func(o *experiment.Options) { o.DurableCheckpointPages = -5 }, "-durable-ckpt"},
		{"retention without faults", func(o *experiment.Options) { o.Fault, o.PrecyclePE = fault.Profile{}, 0 }, "-retention-days"},
		{"precycle without faults", func(o *experiment.Options) { o.Fault, o.RetentionDays = fault.Profile{}, 0 }, "-precycle"},
	} {
		opt := good
		tc.mutate(&opt)
		if err := try(opt); err == nil {
			t.Errorf("%s accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
	}
}
