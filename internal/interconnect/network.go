package interconnect

import "oocnvm/internal/sim"

// NetworkParams describes a cluster fabric port.
type NetworkParams struct {
	Name        string
	SignalGbps  float64 // raw signalling rate of the port
	EncodingNum int
	EncodingDen int
	ProtocolEff float64  // transport/middleware efficiency on top of encoding
	RoundTrip   sim.Time // per-request round-trip setup cost
	ShareFactor float64  // fraction of the port available to one consumer
}

// QDR4XInfiniBand is Carver's fabric (Figure 3): 4 lanes x 10 Gb/s with
// 8b/10b encoding = 4 GB/s of data per port. The paper's ION-local results
// additionally pay GPFS client/NSD protocol overhead and share each ION's
// port between its two PCIe SSDs, which is captured by ProtocolEff and
// ShareFactor.
func QDR4XInfiniBand() NetworkParams {
	return NetworkParams{
		Name:       "QDR-4X-InfiniBand",
		SignalGbps: 40, EncodingNum: 8, EncodingDen: 10,
		ProtocolEff: 0.55,
		RoundTrip:   25 * sim.Microsecond,
		ShareFactor: 0.5,
	}
}

// FibreChannel8G models the ION-to-RAID attachment of Figures 2 and 3.
func FibreChannel8G() NetworkParams {
	return NetworkParams{
		Name:       "FibreChannel-8G",
		SignalGbps: 8, EncodingNum: 8, EncodingDen: 10,
		ProtocolEff: 0.90,
		RoundTrip:   20 * sim.Microsecond,
		ShareFactor: 1,
	}
}

// EffectiveBytesPerSec returns the data bandwidth one consumer sees.
func (n NetworkParams) EffectiveBytesPerSec() float64 {
	bw := n.SignalGbps * 1e9 / 8 * float64(n.EncodingNum) / float64(n.EncodingDen)
	bw *= n.ProtocolEff
	if n.ShareFactor > 0 {
		bw *= n.ShareFactor
	}
	return bw
}

// NewNetworkLine builds the Timeline-backed link for the fabric.
func NewNetworkLine(n NetworkParams) *Line {
	return NewLine(n.Name, n.EffectiveBytesPerSec(), n.RoundTrip)
}

// IONPath assembles the full ION-local data path of Figure 2a: the remote
// SSD's own (bridged) PCIe attachment in series with the cluster network.
func IONPath(pcie PCIeConfig, net NetworkParams) *Chain {
	return NewChain(NewPCIeLine(pcie), NewNetworkLine(net))
}
