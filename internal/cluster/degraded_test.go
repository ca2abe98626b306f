package cluster

import (
	"testing"

	"oocnvm/internal/netfault"
)

func TestValidateRejectsNonPositiveGeometry(t *testing.T) {
	for _, mut := range []func(*Topology){
		func(c *Topology) { c.CoresPerCN = 0 },
		func(c *Topology) { c.CoresPerCN = -8 },
		func(c *Topology) { c.RAIDWidth = 0 },
		func(c *Topology) { c.RAIDSets = 0 },
		func(c *Topology) { c.RAIDSets = -1 },
	} {
		c := Carver()
		mut(&c)
		if c.Validate() == nil {
			t.Fatalf("invalid geometry accepted: %+v", c)
		}
	}
}

func TestPreloadFanOutBeatsSingleSet(t *testing.T) {
	plan := PreloadPlan{DatasetBytes: 1 << 30}
	wide, err := Preload(ComputeLocal(), plan)
	if err != nil {
		t.Fatal(err)
	}
	narrow := ComputeLocal()
	narrow.RAIDSets = 1
	single, err := Preload(narrow, plan)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Duration >= single.Duration {
		t.Fatalf("ten RAID sets (%v) not faster than one (%v)", wide.Duration, single.Duration)
	}
}

func TestPreloadDegradedDeterminism(t *testing.T) {
	prof, _ := netfault.ForName("flaky")
	plan := PreloadPlan{DatasetBytes: 512 << 20}
	opt := DegradedOptions{Profile: prof, Seed: 42}
	a, errA := PreloadDegraded(ComputeLocal(), plan, opt)
	b, errB := PreloadDegraded(ComputeLocal(), plan, opt)
	if errA != nil || errB != nil {
		t.Fatalf("runs failed: %v, %v", errA, errB)
	}
	if a.Transfer != b.Transfer {
		t.Fatalf("same-seed degraded preloads differ:\n%+v\n%+v", a.Transfer, b.Transfer)
	}
}

func TestPreloadDegradedSlowerThanClean(t *testing.T) {
	plan := PreloadPlan{DatasetBytes: 512 << 20}
	clean, err := Preload(ComputeLocal(), plan)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := netfault.ForName("flaky")
	deg, err := PreloadDegraded(ComputeLocal(), plan, DegradedOptions{Profile: prof, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Transfer.Completed || deg.Transfer.Retries == 0 {
		t.Fatalf("flaky preload should complete through retries: %+v", deg.Transfer)
	}
	if deg.Duration <= clean.Duration {
		t.Fatalf("degraded preload (%v) not slower than clean (%v)", deg.Duration, clean.Duration)
	}
	// Goodput cannot beat the profile's 512 MB/s cap.
	if deg.Transfer.Goodput > 512e6*1.01 {
		t.Fatalf("goodput %.0f beats the cap", deg.Transfer.Goodput)
	}
}

func TestDrainCheckpoint(t *testing.T) {
	topo := ComputeLocal()
	plan := CheckpointPlan{SnapshotBytes: 512 << 20}
	clean, err := DrainCheckpoint(topo, plan, DegradedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Transfer.Completed {
		t.Fatalf("clean drain incomplete: %+v", clean.Transfer)
	}
	// The FC attachment (~0.72 GB/s) bottlenecks the drain.
	if clean.Transfer.Goodput > topo.Storage.EffectiveBytesPerSec()*float64(topo.IONs)*1.01 {
		t.Fatalf("drain goodput %.0f beats the aggregate FC envelope", clean.Transfer.Goodput)
	}

	prof, _ := netfault.ForName("wan")
	wan, err := DrainCheckpoint(topo, plan, DegradedOptions{Profile: prof, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if wan.Duration <= clean.Duration {
		t.Fatal("wan-degraded drain not slower than clean")
	}
}

func TestDrainValidation(t *testing.T) {
	if _, err := DrainCheckpoint(ComputeLocal(), CheckpointPlan{}, DegradedOptions{}); err == nil {
		t.Fatal("zero snapshot accepted")
	}
	bad := ComputeLocal()
	bad.RAIDSets = 0
	if _, err := DrainCheckpoint(bad, CheckpointPlan{SnapshotBytes: 1}, DegradedOptions{}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}
