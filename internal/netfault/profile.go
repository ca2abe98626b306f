// Package netfault degrades the cluster fabric deterministically. The
// preload pipeline of §3.1 and the checkpoint write-back path both cross
// the ION↔CNL network, which the rest of the simulator models as perfectly
// clean; this package wraps any interconnect line or chain in a
// toxiproxy-style degradation profile — added latency with jitter,
// per-chunk loss and corruption probabilities, a bandwidth cap, and
// scheduled outage windows — and provides a resumable chunked-transfer
// engine on top (Transfer) with per-chunk FNV checksums, timeouts, bounded
// retry with exponential backoff, and a double-buffered chunk-bitmap
// journal (the internal/ckpt slot pattern) so an interrupted staging run
// restarts from the last verified chunk instead of byte zero.
//
// Every stochastic choice draws from a sim.RNG stream derived from
// (seed, chunk, attempt), never from a shared cursor, so the fault pattern
// a transfer sees is bit-identical across runs and independent of how many
// logical streams carry the chunks.
package netfault

import (
	"fmt"
	"math"
	"strings"

	"oocnvm/internal/sim"
)

// Window is one scheduled outage: the fabric accepts no new transfer
// attempts in [Start, End). An End of NeverEnds models a permanent
// partition from Start on.
type Window struct {
	Start, End sim.Time
}

// NeverEnds marks an outage window that never lifts.
const NeverEnds = sim.Time(math.MaxInt64)

// Profile parameterizes the degradation. The zero value degrades nothing:
// a transfer over a zero profile is bit-identical to one over the bare
// link.
type Profile struct {
	Name string
	// AddedLatency is extra fixed per-attempt latency (routing detours,
	// middlebox traversal) on top of the link's own request overhead.
	AddedLatency sim.Time
	// Jitter is the half-open range of extra uniform per-attempt latency
	// drawn from the attempt's RNG stream: [0, Jitter].
	Jitter sim.Time
	// LossProb is the per-attempt probability the chunk vanishes in the
	// fabric: the sender burns the full ack timeout, no wire time is
	// booked, and the chunk is retransmitted.
	LossProb float64
	// CorruptProb is the per-attempt probability the chunk arrives but
	// fails its FNV checksum: the wire time is spent, then retransmitted.
	CorruptProb float64
	// BandwidthCapBps throttles the path below the link's native rate
	// (congestion, QoS shaping). Zero means uncapped.
	BandwidthCapBps float64
	// Outages are scheduled windows in which no new attempt may start.
	// Attempts arriving inside a window stall until it lifts (the stall is
	// attributed to the recovery component); in-flight transfers complete.
	Outages []Window
}

// Available returns the earliest instant at or after t the fabric accepts
// a new attempt. ok is false when t falls inside a window that never ends:
// no availability remains and the transfer cannot complete.
func (p Profile) Available(t sim.Time) (at sim.Time, ok bool) {
	// Windows may be unsorted and overlap; iterate to a fixed point.
	for moved := true; moved; {
		moved = false
		for _, w := range p.Outages {
			if t >= w.Start && t < w.End {
				if w.End == NeverEnds {
					return t, false
				}
				t = w.End
				moved = true
			}
		}
	}
	return t, true
}

// PositiveAvailability reports whether the outage schedule leaves any
// usable time after every window: false only when some window never ends.
func (p Profile) PositiveAvailability() bool {
	for _, w := range p.Outages {
		if w.End == NeverEnds && w.Start >= 0 {
			return false
		}
	}
	return true
}

// Profiles returns the named degradation profiles, mildest first. The
// latency/loss/bandwidth triples follow the toxiproxy toxic families:
// latency+jitter, loss (timeout), corruption (limit_data-style damage),
// bandwidth, and timed down windows.
func Profiles() []Profile {
	return []Profile{
		{Name: "none"},
		{
			// Long-haul detour: latency only, nothing dropped.
			Name:         "wan",
			AddedLatency: 2 * sim.Millisecond,
			Jitter:       500 * sim.Microsecond,
		},
		{
			// A few percent of chunks vanish or arrive damaged.
			Name:         "lossy",
			AddedLatency: 500 * sim.Microsecond,
			Jitter:       250 * sim.Microsecond,
			LossProb:     0.02,
			CorruptProb:  0.005,
		},
		{
			// QoS shaping well below the fabric's native rate.
			Name:            "congested",
			AddedLatency:    1 * sim.Millisecond,
			Jitter:          1 * sim.Millisecond,
			BandwidthCapBps: 256e6,
		},
		{
			// Everything at once: the chaos profile.
			Name:            "flaky",
			AddedLatency:    2 * sim.Millisecond,
			Jitter:          2 * sim.Millisecond,
			LossProb:        0.08,
			CorruptProb:     0.04,
			BandwidthCapBps: 512e6,
		},
		{
			// Two scheduled fabric outages with mild background loss.
			Name:     "outage",
			LossProb: 0.01,
			Jitter:   250 * sim.Microsecond,
			Outages: []Window{
				{Start: 100 * sim.Millisecond, End: 350 * sim.Millisecond},
				{Start: 600 * sim.Millisecond, End: 700 * sim.Millisecond},
			},
		},
		{
			// Permanent partition: no availability, transfers cannot finish.
			Name:    "blackout",
			Outages: []Window{{Start: 0, End: NeverEnds}},
		},
	}
}

// ForName finds a named profile, case-insensitively. The empty name is the
// clean "none" profile.
func ForName(name string) (Profile, error) {
	if name == "" {
		return Profile{Name: "none"}, nil
	}
	for _, p := range Profiles() {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("netfault: unknown profile %q (have none, wan, lossy, congested, flaky, outage, blackout)", name)
}
