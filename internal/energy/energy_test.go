package energy

import (
	"testing"

	"oocnvm/internal/sim"
)

func TestEnergyTwoState(t *testing.T) {
	p := DevicePower{ActiveWatts: 20, IdleWatts: 10}
	// One hour fully idle: 10 W x 3600 s.
	if got := p.Energy(3600*sim.Second, 0); got != 36000 {
		t.Fatalf("idle energy = %v, want 36000 J", got)
	}
	// Fully active.
	if got := p.Energy(3600*sim.Second, 1); got != 72000 {
		t.Fatalf("active energy = %v, want 72000 J", got)
	}
	// Halfway.
	if got := p.Energy(3600*sim.Second, 0.5); got != 54000 {
		t.Fatalf("mixed energy = %v", got)
	}
}

func TestEnergyClampsFraction(t *testing.T) {
	p := DevicePower{ActiveWatts: 20, IdleWatts: 10}
	if p.Energy(sim.Second, -1) != 10 {
		t.Fatal("negative fraction not clamped")
	}
	if p.Energy(sim.Second, 2) != 20 {
		t.Fatal("fraction above one not clamped")
	}
}

func TestCompareFavorsNVMForLargeDatasets(t *testing.T) {
	// A 256 GiB per-node share with a 4 GiB working set: the paper's regime.
	c, err := Compare(256<<30, 4<<30, 3600*sim.Second, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if c.EnergyRatio <= 1 {
		t.Fatalf("energy ratio %v; huge DRAM should burn more than SSD+small DRAM", c.EnergyRatio)
	}
	if c.CapitalRatio <= 1 {
		t.Fatalf("capital ratio %v; DRAM+network should cost more", c.CapitalRatio)
	}
}

func TestCompareSmallDatasetLessCompelling(t *testing.T) {
	// With a tiny dataset the fixed SSD power dominates: the advantage
	// shrinks (and may invert) — the paper's argument is about *large* data.
	big, err := Compare(256<<30, 4<<30, 3600*sim.Second, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Compare(8<<30, 4<<30, 3600*sim.Second, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if small.EnergyRatio >= big.EnergyRatio {
		t.Fatalf("energy advantage should grow with dataset size: %v vs %v",
			small.EnergyRatio, big.EnergyRatio)
	}
}

func TestCompareValidation(t *testing.T) {
	if _, err := Compare(0, 1, sim.Second, 0.5); err == nil {
		t.Fatal("zero dataset accepted")
	}
	if _, err := Compare(10, 20, sim.Second, 0.5); err == nil {
		t.Fatal("working set above dataset accepted")
	}
}

func TestCapitalCostComposition(t *testing.T) {
	a := InMemory(64 << 30)
	want := DRAMDollarsPerGiB*64 + IBPortDollars
	if got := a.CapitalCost(); got != want {
		t.Fatalf("in-memory capital = %v, want %v", got, want)
	}
	b := ComputeLocalNVM(64<<30, 2<<30)
	want = DRAMDollarsPerGiB*2 + SSDDollarsPerGiB*64
	if got := b.CapitalCost(); got != want {
		t.Fatalf("NVM capital = %v, want %v", got, want)
	}
}

func TestRunEnergyComposition(t *testing.T) {
	a := ComputeLocalNVM(64<<30, 2<<30)
	span := 100 * sim.Second
	got := a.RunEnergy(span, 1)
	want := DRAMPerGiB.Energy(span, 1)*2 + PCIeSSD.Energy(span, 1)
	if got != want {
		t.Fatalf("run energy = %v, want %v", got, want)
	}
}
