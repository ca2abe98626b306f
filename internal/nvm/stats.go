package nvm

import "oocnvm/internal/sim"

// Stats is a snapshot of everything the paper's probes measure on a device.
type Stats struct {
	BytesRead    int64
	BytesWritten int64
	Reads        int64 // page reads
	Programs     int64 // page programs
	Erases       int64 // block erases
	Span         sim.Time
	Breakdown    Breakdown
	PAL          PALHistogram

	ChannelUtilization float64 // Figure 9a metric
	PackageUtilization float64 // Figure 9b metric
	BusOccupancy       float64 // raw channel-bus busy fraction
}

// Span reports the wall time between the first issued and the last completed
// operation.
func (d *Device) Span() sim.Time {
	if !d.started {
		return 0
	}
	return d.lastEnd - d.firstIssue
}

// Bandwidth reports achieved data bandwidth (read+write bytes over the span)
// in bytes per second.
func (d *Device) Bandwidth() float64 {
	return sim.Rate(d.cBytesRd.Value()+d.cBytesWr.Value(), d.Span())
}

// ChannelUtilization is the paper's Figure 9a metric: the average fraction
// of time each channel is "kept busy" — its bus occupied or any die behind
// it working — computed from the exact union of busy intervals.
func (d *Device) ChannelUtilization() float64 {
	span := d.Span()
	if span <= 0 {
		return 0
	}
	var sum float64
	for c := range d.chCover {
		sum += d.chCover[c].Utilization(span)
	}
	return sum / float64(len(d.chCover))
}

// PackageUtilization is the paper's Figure 9b metric: the average fraction
// of time each NVM package is busy serving requests (any of its dies
// active), computed from the exact union of busy intervals.
func (d *Device) PackageUtilization() float64 {
	span := d.Span()
	if span <= 0 {
		return 0
	}
	var sum float64
	for c := range d.pkgCover {
		for p := range d.pkgCover[c] {
			sum += d.pkgCover[c][p].Utilization(span)
		}
	}
	return sum / float64(d.Geo.Packages())
}

// BusOccupancy reports the mean raw busy fraction of the channel data buses.
func (d *Device) BusOccupancy() float64 {
	span := d.Span()
	if span <= 0 {
		return 0
	}
	var sum float64
	for c := range d.chanBus {
		sum += d.chanBus[c].Utilization(span)
	}
	return sum / float64(len(d.chanBus))
}

// Stats snapshots all measurements, assembling the work counters from the
// device's metrics registry (the registry is the single source of truth
// since the obs layer landed). It also refreshes the registry's derived
// gauges — breakdown components, utilizations, span and bandwidth — so a
// collector absorbing the registry exports the same numbers this snapshot
// reports.
func (d *Device) Stats() Stats {
	st := Stats{
		BytesRead:    d.cBytesRd.Value(),
		BytesWritten: d.cBytesWr.Value(),
		Reads:        d.cReads.Value(),
		Programs:     d.cProgs.Value(),
		Erases:       d.cErases.Value(),
		Span:         d.Span(),
		Breakdown:    d.breakdown,
		PAL:          PALHistogram{d.cPAL[0].Value(), d.cPAL[1].Value(), d.cPAL[2].Value(), d.cPAL[3].Value()},

		ChannelUtilization: d.ChannelUtilization(),
		PackageUtilization: d.PackageUtilization(),
		BusOccupancy:       d.BusOccupancy(),
	}
	d.reg.Gauge("nvm.span_ps").Set(float64(st.Span))
	d.reg.Gauge("nvm.bandwidth_bps").Set(d.Bandwidth())
	d.reg.Gauge("nvm.channel_utilization").Set(st.ChannelUtilization)
	d.reg.Gauge("nvm.package_utilization").Set(st.PackageUtilization)
	d.reg.Gauge("nvm.bus_occupancy").Set(st.BusOccupancy)
	d.reg.Gauge("nvm.breakdown.non_overlapped_dma_ps").Set(float64(st.Breakdown.NonOverlappedDMA))
	d.reg.Gauge("nvm.breakdown.flash_bus_ps").Set(float64(st.Breakdown.FlashBus))
	d.reg.Gauge("nvm.breakdown.channel_bus_ps").Set(float64(st.Breakdown.ChannelBus))
	d.reg.Gauge("nvm.breakdown.cell_contention_ps").Set(float64(st.Breakdown.CellContention))
	d.reg.Gauge("nvm.breakdown.channel_contention_ps").Set(float64(st.Breakdown.ChannelContention))
	d.reg.Gauge("nvm.breakdown.cell_activation_ps").Set(float64(st.Breakdown.CellActivation))
	return st
}

// DieFreeAt reports when the given die's timeline next becomes idle — the
// physical-availability signal conflict-aware schedulers (PAQ) steer by.
func (d *Device) DieFreeAt(channel, die int) sim.Time {
	if channel < 0 || channel >= len(d.dies) || die < 0 || die >= len(d.dies[channel]) {
		return 0
	}
	return d.dies[channel][die].FreeAt()
}
