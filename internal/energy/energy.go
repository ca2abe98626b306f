// Package energy quantifies the paper's economic motivation (§1): the
// traditional fix for out-of-core problems — enough distributed DRAM to hold
// the dataset plus a high-performance network — carries "very tangible costs
// ... in terms of initial capital investment for the memory and network and
// high energy use of both over time", while NVM acceleration keeps only
// fractions of the dataset in memory. The models here turn a simulated run
// into Joules and a provisioning choice into capital cost, using public
// figures of the paper's era.
package energy

import (
	"fmt"

	"oocnvm/internal/sim"
)

// DevicePower is a two-state power model.
type DevicePower struct {
	ActiveWatts float64
	IdleWatts   float64
}

// Era-appropriate component figures (2013-era data sheets and HPC
// provisioning rules of thumb).
var (
	// PCIeSSD covers the paper's device class (ioDrive2/Z-Drive style).
	PCIeSSD = DevicePower{ActiveWatts: 25, IdleWatts: 8}
	// DRAMPerGiB is registered DDR3 at ~0.4 W/GiB active, refresh-dominated
	// idle.
	DRAMPerGiB = DevicePower{ActiveWatts: 0.45, IdleWatts: 0.25}
	// IBPort is a QDR HCA plus its switch-port share.
	IBPort = DevicePower{ActiveWatts: 12, IdleWatts: 8}
)

// Capital cost figures, USD, 2013-era street prices.
const (
	DRAMDollarsPerGiB = 10.0
	SSDDollarsPerGiB  = 1.0
	IBPortDollars     = 900.0 // HCA + cable + switch-port share
)

// Energy integrates a two-state model over a span with the given busy
// fraction, returning Joules.
func (p DevicePower) Energy(span sim.Time, busyFraction float64) float64 {
	if busyFraction < 0 {
		busyFraction = 0
	}
	if busyFraction > 1 {
		busyFraction = 1
	}
	w := p.IdleWatts + (p.ActiveWatts-p.IdleWatts)*busyFraction
	return w * span.Seconds()
}

// Approach is one way to provision the OoC dataset.
type Approach struct {
	Name string
	// DRAMBytes held resident per node.
	DRAMBytes int64
	// SSDBytes of compute-local NVM per node (0 for the in-memory approach).
	SSDBytes int64
	// NetworkPorts per node dedicated to dataset traffic (remote-memory or
	// ION traffic; 0 when data is node-local).
	NetworkPorts int
}

// InMemory provisions the whole per-node dataset share in DRAM and leans on
// the network for remote accesses.
func InMemory(perNodeDataset int64) Approach {
	return Approach{Name: "distributed-DRAM", DRAMBytes: perNodeDataset, NetworkPorts: 1}
}

// ComputeLocalNVM provisions the paper's alternative: a small DRAM working
// set (one panel in flight plus solver blocks) and the dataset on local NVM.
func ComputeLocalNVM(perNodeDataset, workingSet int64) Approach {
	return Approach{Name: "compute-local-NVM", DRAMBytes: workingSet, SSDBytes: perNodeDataset}
}

// RunEnergy estimates one node's Joules over a run span with the given
// activity level (0..1).
func (a Approach) RunEnergy(span sim.Time, activity float64) float64 {
	e := DRAMPerGiB.Energy(span, activity) * gib(a.DRAMBytes)
	if a.SSDBytes > 0 {
		e += PCIeSSD.Energy(span, activity)
	}
	e += IBPort.Energy(span, activity) * float64(a.NetworkPorts)
	return e
}

// CapitalCost estimates one node's provisioning cost in USD.
func (a Approach) CapitalCost() float64 {
	c := DRAMDollarsPerGiB * gib(a.DRAMBytes)
	c += SSDDollarsPerGiB * gib(a.SSDBytes)
	c += IBPortDollars * float64(a.NetworkPorts)
	return c
}

// Comparison reports the two approaches side by side for a per-node dataset
// share and run length.
type Comparison struct {
	InMemory     Approach
	NVM          Approach
	EnergyRatio  float64 // in-memory Joules / NVM Joules
	CapitalRatio float64 // in-memory USD / NVM USD
}

// Compare builds the paper's economic argument for a given per-node dataset
// share: the NVM approach keeps only workingSet bytes in DRAM.
func Compare(perNodeDataset, workingSet int64, span sim.Time, activity float64) (Comparison, error) {
	if perNodeDataset <= 0 || workingSet <= 0 {
		return Comparison{}, fmt.Errorf("energy: dataset and working set must be positive")
	}
	if workingSet > perNodeDataset {
		return Comparison{}, fmt.Errorf("energy: working set larger than the dataset defeats the point")
	}
	mem := InMemory(perNodeDataset)
	nvmA := ComputeLocalNVM(perNodeDataset, workingSet)
	c := Comparison{InMemory: mem, NVM: nvmA}
	me := mem.RunEnergy(span, activity)
	ne := nvmA.RunEnergy(span, activity)
	if ne > 0 {
		c.EnergyRatio = me / ne
	}
	mc := mem.CapitalCost()
	nc := nvmA.CapitalCost()
	if nc > 0 {
		c.CapitalRatio = mc / nc
	}
	return c, nil
}

func gib(b int64) float64 { return float64(b) / (1 << 30) }
