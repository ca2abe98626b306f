// Package cluster models the HPC architectures the paper compares: the
// Carver-like baseline with storage sequestered behind I/O nodes (Figures
// 2a, 3) and the proposed compute-local layout (Figure 2b), plus the
// preload pipeline that stages the OoC dataset from network-attached
// magnetic storage onto compute-local SSDs "prior to beginning the
// computation, moving that I/O out of the critical path" (§3.1).
package cluster

import (
	"fmt"

	"oocnvm/internal/interconnect"
	"oocnvm/internal/sim"
)

// Placement says where the NVM lives relative to compute.
type Placement int

// The two architectures.
const (
	IONLocal Placement = iota // Figure 2a: SSDs on the I/O nodes
	CNLocal                   // Figure 2b: SSDs on the compute nodes
)

// String names the placement.
func (p Placement) String() string {
	if p == IONLocal {
		return "ION-local"
	}
	return "CN-local"
}

// Topology describes the cluster.
type Topology struct {
	Name            string
	ComputeNodes    int
	CoresPerCN      int
	OoCComputeNodes int // subset dedicated to out-of-core computation
	IONs            int
	SSDsPerION      int
	Placement       Placement
	Network         interconnect.NetworkParams
	Storage         interconnect.NetworkParams // ION <-> RAID attachment
	RAIDWidth       int                        // spindles per RAID set
	RAIDSets        int
}

// Carver returns the paper's evaluation platform (Figure 3): 1202 compute
// nodes / 9984 cores with 40 CNs (320 cores) dedicated to OoC computing,
// QDR 4X InfiniBand, 10 IONs with 48 cores and 20 PCIe SSDs, and
// Fibre-Channel-attached RAID enclosures.
func Carver() Topology {
	return Topology{
		Name:            "Carver",
		ComputeNodes:    1202,
		CoresPerCN:      8,
		OoCComputeNodes: 40,
		IONs:            10,
		SSDsPerION:      2,
		Placement:       IONLocal,
		Network:         interconnect.QDR4XInfiniBand(),
		Storage:         interconnect.FibreChannel8G(),
		RAIDWidth:       12,
		RAIDSets:        10,
	}
}

// ComputeLocal returns the paper's proposed migration of Carver: the 20
// PCIe SSDs move from the IONs onto the OoC compute nodes.
func ComputeLocal() Topology {
	t := Carver()
	t.Name = "Carver-CNL"
	t.Placement = CNLocal
	return t
}

// Validate reports impossible topologies.
func (t Topology) Validate() error {
	if t.ComputeNodes <= 0 || t.IONs <= 0 || t.SSDsPerION <= 0 {
		return fmt.Errorf("cluster: node counts must be positive: %+v", t)
	}
	if t.CoresPerCN <= 0 {
		return fmt.Errorf("cluster: cores per CN must be positive, got %d", t.CoresPerCN)
	}
	if t.RAIDWidth <= 0 || t.RAIDSets <= 0 {
		return fmt.Errorf("cluster: RAID geometry must be positive (width=%d sets=%d)", t.RAIDWidth, t.RAIDSets)
	}
	if t.OoCComputeNodes > t.ComputeNodes {
		return fmt.Errorf("cluster: OoC nodes %d exceed compute nodes %d", t.OoCComputeNodes, t.ComputeNodes)
	}
	return nil
}

// SSDs returns the cluster's SSD population.
func (t Topology) SSDs() int { return t.IONs * t.SSDsPerION }

// PreloadPlan describes staging the dataset from the magnetic tier to the
// compute-local SSDs.
type PreloadPlan struct {
	DatasetBytes int64
	// OverlapWindow is prior application execution time available to hide
	// the preload behind ("such data migration can of course be overlapped
	// with previous application execution times", §3.1).
	OverlapWindow sim.Time
}

// PreloadResult reports the staging outcome.
type PreloadResult struct {
	Duration   sim.Time
	Hidden     bool     // fully overlapped with the prior job
	CriticalNs sim.Time // time left on the critical path after overlap
	DiskBW     float64  // achieved RAID streaming rate
}

// Preload simulates staging DatasetBytes from the magnetic tier over the
// storage attachment and cluster network to one OoC compute node's SSD.
//
// Fan-out assumption: the dataset is striped chunk-round-robin across all
// RAIDSets RAID sets, each set reached through its owning ION's
// Fibre-Channel attachment (sets are distributed round-robin over the
// IONs, so sets sharing an ION share its FC link). All set pipelines feed
// the single network port of the destination compute node, which is
// therefore the steady-state bottleneck of a healthy preload. The
// per-chunk staging runs on the resumable transfer engine of
// internal/netfault with the clean profile; PreloadDegraded exposes the
// same path under fault injection.
func Preload(t Topology, plan PreloadPlan) (PreloadResult, error) {
	res, err := PreloadDegraded(t, plan, DegradedOptions{})
	if err != nil {
		return PreloadResult{}, err
	}
	return res.PreloadResult, nil
}
