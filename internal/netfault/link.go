package netfault

import (
	"oocnvm/internal/nvm"
	"oocnvm/internal/sim"
)

// Degraded wraps the data path a transfer crosses in a degradation
// Profile. Both *interconnect.Line and *interconnect.Chain are nvm.Links,
// so a profile can wrap a single fabric port or a whole staged path
// (remote PCIe then the cluster network). The wrapper owns the
// bandwidth-cap pacing timeline, so a capped path serializes chunks at the
// capped rate no matter how fast the underlying link is.
type Degraded struct {
	link nvm.Link
	prof Profile

	cap sim.Timeline // bandwidth-cap pacing; unused when uncapped
}

// Wrap degrades the link with the profile.
func Wrap(l nvm.Link, p Profile) *Degraded {
	return &Degraded{link: l, prof: p}
}

// Profile reports the wrapped degradation profile.
func (d *Degraded) Profile() Profile { return d.prof }

// EffectiveBps reports the degraded path's data rate: the link's own
// bottleneck rate, further capped by the profile's bandwidth cap.
func (d *Degraded) EffectiveBps() float64 {
	bps := d.link.BytesPerSec()
	if d.prof.BandwidthCapBps > 0 && d.prof.BandwidthCapBps < bps {
		bps = d.prof.BandwidthCapBps
	}
	return bps
}

// Overhead reports the fixed per-attempt cost: the link's request overhead
// plus the profile's added latency (jitter is drawn per attempt by the
// transfer engine, not here).
func (d *Degraded) Overhead() sim.Time {
	return d.link.RequestOverhead() + d.prof.AddedLatency
}

// Available returns when the fabric next accepts an attempt at or after t;
// ok is false under a permanent partition.
func (d *Degraded) Available(t sim.Time) (sim.Time, bool) {
	return d.prof.Available(t)
}

// Send books n bytes through the degraded path no earlier than at: the
// underlying link in series with the cap pacer, completing when both have
// moved the chunk. Fault draws (loss, corruption) belong to the transfer
// engine; Send only accounts time.
func (d *Degraded) Send(at sim.Time, n int64) sim.Time {
	end := d.link.Transfer(at, n)
	if d.prof.BandwidthCapBps > 0 {
		_, capEnd := d.cap.Acquire(at, sim.DurationForBytes(n, d.prof.BandwidthCapBps))
		if capEnd > end {
			end = capEnd
		}
	}
	return end
}
