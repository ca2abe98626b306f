package nvm

import "oocnvm/internal/sim"

// Breakdown accumulates time spent in the six operation states the paper
// decomposes device activity into (§4.5). Values are summed over all page
// operations; Percentages normalizes them for the Figure 10a/10c charts.
type Breakdown struct {
	NonOverlappedDMA  sim.Time // SSD<->host movement not hidden behind media work
	FlashBus          sim.Time // register/SRAM <-> channel staging inside a package
	ChannelBus        sim.Time // data movement on the shared channel data bus
	CellContention    sim.Time // waiting on a die already serving another request
	ChannelContention sim.Time // waiting on a channel bus already occupied
	CellActivation    sim.Time // the read/program/erase on the cell array itself
}

// Total returns the sum over all six states.
func (b Breakdown) Total() sim.Time {
	return b.NonOverlappedDMA + b.FlashBus + b.ChannelBus +
		b.CellContention + b.ChannelContention + b.CellActivation
}

// BreakdownLabels names the six states in the paper's legend order.
var BreakdownLabels = []string{
	"Non-overlapped DMA",
	"Flash bus activation",
	"Channel activation",
	"Cell contention",
	"Channel contention",
	"Cell activation",
}

// Percentages returns the six states as fractions of the total, in
// BreakdownLabels order. A zero total yields all zeros.
func (b Breakdown) Percentages() [6]float64 {
	total := float64(b.Total())
	if total == 0 {
		return [6]float64{}
	}
	return [6]float64{
		float64(b.NonOverlappedDMA) / total,
		float64(b.FlashBus) / total,
		float64(b.ChannelBus) / total,
		float64(b.CellContention) / total,
		float64(b.ChannelContention) / total,
		float64(b.CellActivation) / total,
	}
}

// PAL is the parallelism level a request achieved (paper §4.5):
//
//	PAL1: channel striping/pipelining only
//	PAL2: die (bank) interleaving on top of PAL1
//	PAL3: multi-plane operation on top of PAL1
//	PAL4: all of the above
type PAL int

// Parallelism levels.
const (
	PAL1 PAL = iota + 1
	PAL2
	PAL3
	PAL4
)

// String returns "PAL1".."PAL4".
func (p PAL) String() string {
	names := [...]string{"PAL?", "PAL1", "PAL2", "PAL3", "PAL4"}
	if p < PAL1 || p > PAL4 {
		return names[0]
	}
	return names[p]
}

// PALHistogram counts requests by achieved parallelism level.
type PALHistogram [4]int64

// Total returns the number of recorded requests.
func (h PALHistogram) Total() int64 {
	var t int64
	for _, v := range h {
		t += v
	}
	return t
}

// Fractions returns the PAL1..PAL4 shares; all zeros when nothing recorded.
func (h PALHistogram) Fractions() [4]float64 {
	t := float64(h.Total())
	if t == 0 {
		return [4]float64{}
	}
	var f [4]float64
	for i, v := range h {
		f[i] = float64(v) / t
	}
	return f
}
