package cluster

import (
	"errors"

	"oocnvm/internal/disk"
	"oocnvm/internal/interconnect"
	"oocnvm/internal/netfault"
	"oocnvm/internal/sim"
	"oocnvm/internal/trace"
)

// DegradedOptions parameterizes a preload or checkpoint drain under
// network degradation. The zero value is a clean, fault-free run.
type DegradedOptions struct {
	// Profile is the netfault degradation applied to the cluster-network
	// hop. The zero profile degrades nothing.
	Profile netfault.Profile
	// Seed drives every loss/corruption/jitter draw deterministically.
	Seed uint64
}

// DegradedResult is a degraded run's full outcome: the classic preload
// summary and the transfer engine's detailed result.
type DegradedResult struct {
	PreloadResult
	Transfer netfault.Result
}

// stagingPipeline is the magnetic tier fan-out: one RAID0 array per RAID
// set, each behind its owning ION's Fibre-Channel line. Chunks map to sets
// round-robin; each set stores its stripe contiguously, so per-set access
// stays sequential.
type stagingPipeline struct {
	sets  int
	raids []*disk.RAID0
	fcs   []*interconnect.Line
}

// stageChunkBytes is the retransmission unit of preloads and checkpoint
// drains.
const stageChunkBytes = 16 << 20

func newStagingPipeline(t Topology) (*stagingPipeline, error) {
	p := &stagingPipeline{sets: t.RAIDSets}
	for i := 0; i < t.RAIDSets; i++ {
		r, err := disk.NewRAID0(t.RAIDWidth, disk.Enterprise15K(), 1<<20)
		if err != nil {
			return nil, err
		}
		p.raids = append(p.raids, r)
	}
	for i := 0; i < t.IONs; i++ {
		p.fcs = append(p.fcs, interconnect.NewNetworkLine(t.Storage))
	}
	return p, nil
}

// lanes returns chunk i's RAID set and its ION's FC line.
func (p *stagingPipeline) lanes(i int) (*disk.RAID0, *interconnect.Line) {
	set := i % p.sets
	return p.raids[set], p.fcs[set%len(p.fcs)]
}

// setOffset is chunk i's byte offset within its set's contiguous stripe.
func (p *stagingPipeline) setOffset(i int) int64 {
	return int64(i/p.sets) * stageChunkBytes
}

// read stages chunk i out of the magnetic tier: RAID read, then the FC hop
// to the ION — the transfer engine's Source for a preload.
func (p *stagingPipeline) read(at sim.Time, i int, _, n int64) sim.Time {
	raid, fc := p.lanes(i)
	e := raid.Serve(at, p.setOffset(i), n)
	return fc.Transfer(e, n)
}

// write stores chunk i back into the magnetic tier: the FC hop, then the
// RAID write — the transfer engine's Sink for a checkpoint drain.
func (p *stagingPipeline) write(at sim.Time, i int, _, n int64) sim.Time {
	raid, fc := p.lanes(i)
	e := fc.Transfer(at, n)
	return raid.Serve(e, p.setOffset(i), n)
}

// PreloadDegraded stages the dataset like Preload, but across a degraded
// cluster fabric with chunked delivery: per-chunk checksums and bounded
// retry with exponential backoff.
func PreloadDegraded(t Topology, plan PreloadPlan, opt DegradedOptions) (DegradedResult, error) {
	if err := t.Validate(); err != nil {
		return DegradedResult{}, err
	}
	if plan.DatasetBytes <= 0 {
		return DegradedResult{}, errors.New("cluster: preload dataset must be positive")
	}
	pipe, err := newStagingPipeline(t)
	if err != nil {
		return DegradedResult{}, err
	}
	link := netfault.Wrap(interconnect.NewNetworkLine(t.Network), opt.Profile)
	spec := netfault.Spec{
		Name:       "preload-" + t.Name,
		Kind:       uint8(trace.Read),
		TotalBytes: plan.DatasetBytes,
		ChunkBytes: stageChunkBytes,
		Parallel:   t.RAIDSets,
		Seed:       opt.Seed,
		Source:     pipe.read,
	}
	return runDegraded(spec, link, plan.OverlapWindow)
}

// CheckpointPlan describes draining an application snapshot off the
// compute-local SSDs back to the magnetic tier.
type CheckpointPlan struct {
	SnapshotBytes int64
}

// DrainCheckpoint writes a checkpoint snapshot back from an OoC compute
// node to the magnetic tier: the node's native-PCIe SSD read feeds the
// (possibly degraded) cluster network, then the ION's Fibre-Channel
// attachment and RAID set absorb the chunk, with the same checksum and
// retry machinery as PreloadDegraded.
func DrainCheckpoint(t Topology, plan CheckpointPlan, opt DegradedOptions) (DegradedResult, error) {
	if err := t.Validate(); err != nil {
		return DegradedResult{}, err
	}
	if plan.SnapshotBytes <= 0 {
		return DegradedResult{}, errors.New("cluster: checkpoint snapshot must be positive")
	}
	pipe, err := newStagingPipeline(t)
	if err != nil {
		return DegradedResult{}, err
	}
	ssd := interconnect.NewPCIeLine(interconnect.PCIeConfig{Gen: interconnect.PCIeGen2, Lanes: 8})
	link := netfault.Wrap(interconnect.NewNetworkLine(t.Network), opt.Profile)
	spec := netfault.Spec{
		Name:       "ckpt-" + t.Name,
		Kind:       uint8(trace.Write),
		TotalBytes: plan.SnapshotBytes,
		ChunkBytes: stageChunkBytes,
		Parallel:   t.RAIDSets,
		Seed:       opt.Seed,
		Source: func(at sim.Time, _ int, _, n int64) sim.Time {
			return ssd.Transfer(at, n)
		},
		Sink: pipe.write,
	}
	return runDegraded(spec, link, 0)
}

// runDegraded runs the transfer engine and folds its result into the
// classic preload summary.
func runDegraded(spec netfault.Spec, link *netfault.Degraded, overlap sim.Time) (DegradedResult, error) {
	tr, err := netfault.NewTransfer(spec, link)
	if err != nil {
		return DegradedResult{}, err
	}
	res, runErr := tr.Run(0)
	out := DegradedResult{Transfer: res}
	out.Duration = res.End - res.Start
	out.DiskBW = res.Goodput
	if out.Duration <= overlap {
		out.Hidden = true
	} else {
		out.CriticalNs = out.Duration - overlap
	}
	return out, runErr
}
