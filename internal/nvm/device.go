package nvm

import (
	"fmt"

	"oocnvm/internal/fault"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/sim"
)

// Op is a page-granular NVM transaction type.
type Op int

// NVM transaction kinds (the three verbs of the paper's Figure 4 "NVM
// transaction-level read, write, erase").
const (
	OpRead Op = iota
	OpProgram
	OpErase
)

// String names the transaction kind.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// PageOp is one page-granular transaction addressed to a physical location.
// PPN carries the physical page number the translator resolved; the device's
// scheduling ignores it, but the fault injector keys per-eraseblock wear and
// error state off it. GC marks garbage-collection traffic (relocation
// reads/programs and victim erases) so latency attribution can charge an
// activation of pure GC work to the GC component instead of the host's.
// Meta marks FTL metadata traffic (journal and checkpoint pages); LPN and
// Ver are the durable per-page OOB tags a MediaTap commits alongside the
// payload (LPN < 0 when the page carries no host data).
type PageOp struct {
	Op   Op
	Loc  Location
	PPN  int64
	GC   bool
	Meta bool
	LPN  int64
	Ver  uint64
}

// Link abstracts the host-side data path of the SSD (PCIe, possibly behind a
// SATA bridge, possibly behind a cluster network). It is a shared, exclusive
// resource: transfers serialize on it.
type Link interface {
	// Transfer books n bytes on the link no earlier than at and returns the
	// completion time.
	Transfer(at sim.Time, n int64) sim.Time
	// RequestOverhead is the fixed per-request cost of the path (protocol
	// re-encoding in bridges, network round-trip setup, ...).
	RequestOverhead() sim.Time
	// BytesPerSec reports the link's effective data bandwidth.
	BytesPerSec() float64
	// Busy reports the link's accumulated transfer time, the numerator of
	// its occupancy series.
	Busy() sim.Time
	// SetProbe attaches an observability probe to the link; nil detaches.
	SetProbe(p *obs.Collector)
}

// Device is an event-driven model of one SSD's NVM complex: channel buses and
// dies as exclusive resources, Table 1 cell timings, multi-plane merging and
// die interleaving emerging from the physical layout of each request.
type Device struct {
	Geo  Geometry
	Cell CellParams
	Bus  BusParams

	link    Link
	rng     *sim.RNG
	chanBus []sim.Timeline   // one per channel
	dies    [][]sim.Timeline // [channel][dieInChannel]

	// Busy-union trackers for the paper's "kept busy" utilization probes:
	// a channel counts as busy while its bus or any die behind it works; a
	// package counts as busy while any of its dies works.
	chCover  []sim.IntervalSet   // per channel
	pkgCover [][]sim.IntervalSet // [channel][packageInChannel]

	// Contention watermarks deduplicate queueing time: when many
	// transactions wait on the same busy resource, the busy period is
	// charged to the breakdown once, not once per waiter (the paper's
	// breakdown is of device state time, not of per-waiter latency).
	chContMark  []sim.Time
	dieContMark [][]sim.Time

	breakdown  Breakdown
	started    bool
	firstIssue sim.Time
	lastEnd    sim.Time

	// cacheMode enables dual-register ("cache read") operation: the die can
	// sense the next page while the previous page drains from the secondary
	// register, so register staging no longer occupies the die.
	cacheMode bool

	// faults, when non-nil, injects reliability behavior: read-retry
	// latency on the die timelines, program/erase failure reports, and
	// per-block wear feeding the RBER model. Nil means a failure-free
	// device with zero overhead.
	faults *fault.Injector

	// media, when non-nil, receives every program/erase as a durable
	// media-state commit (MediaTap). Durable mode also orders victim
	// erases after every program of the same request (the erase barrier):
	// a power cut mid-request must never have destroyed relocated data
	// whose journal pages were still queued behind the erase.
	media MediaTap

	// Scheduling scratch, reused across Submits. The die buckets, plane
	// merge queues, activation lists and the multi-plane group arena below
	// used to be rebuilt for every request and were the dominant allocation
	// source of a replay; as persistent per-device storage they grow to the
	// workload's high-water mark once and steady-state scheduling allocates
	// nothing. Activation op slices alias this storage, so they are valid
	// only until the next Submit — exactly the request lifetime.
	scBuckets [][]PageOp     // per (channel, die) op buckets, layout order
	scDieActs [][]activation // per non-empty die activation sequences
	scOut     []activation   // round-robin interleaved dispatch order
	scErase   []activation   // durable-mode erase-barrier holdbacks
	scPlane   [][]PageOp     // per-plane merge queues
	scPlaneHd []int          // consumed heads of the per-plane queues
	scGroups  []PageOp       // arena backing multi-plane activation groups

	// att, when non-nil, receives per-request critical-path attribution:
	// the chain of timestamp differences from dispatch to completion of
	// every cell activation (the latest-finishing chain is the request's
	// critical path). All Recorder methods are nil-safe, so the nil case
	// costs one predictable branch.
	att *attrib.Recorder
	// attGCSvc accumulates, per die and per request, the die occupancy of
	// this request's own garbage-collection activations. Foreground GC
	// precedes the host pages that triggered it, so a host chain's entry
	// die-wait silently absorbs the collection service; the split charges
	// that portion to the GC component instead. Reset on every Submit.
	attGCSvc []sim.Time
	// attActGC marks the activation currently executing as all-GC traffic.
	attActGC bool

	// Trace track names, one per die ("chNN/dieNN", indexed like attGCSvc)
	// and one per channel bus ("chNN/bus"), built once by SetProbe for a
	// live probe.
	dieTracks, busTracks []string

	// The device's work counters and latency histogram live in a private
	// obs.Registry so Stats is assembled from the registry in one place and
	// a run-level collector can absorb them for export. The probe receives
	// only spans (bus transfers, die activations); counters never go
	// through it, so absorbing the registry cannot double-count.
	reg      *obs.Registry
	probe    *obs.Collector
	cReads   *obs.Counter
	cProgs   *obs.Counter
	cErases  *obs.Counter
	cBytesRd *obs.Counter
	cBytesWr *obs.Counter
	cPAL     [4]*obs.Counter
	hLatency *obs.Histogram
	hRetry   *obs.Histogram
}

// SetFaults attaches a fault injector. Call before submitting work; a nil
// injector restores the failure-free device.
func (d *Device) SetFaults(inj *fault.Injector) { d.faults = inj }

// SetMediaTap attaches a durable media model. Call before submitting
// work; nil restores the volatile (and erase-barrier-free) device.
func (d *Device) SetMediaTap(m MediaTap) { d.media = m }

// EnableCacheMode turns on dual-register cache operation (see the cacheMode
// field). Call before submitting work.
func (d *Device) EnableCacheMode() { d.cacheMode = true }

// SetAttrib attaches a latency-attribution recorder. Nil detaches.
func (d *Device) SetAttrib(rec *attrib.Recorder) {
	d.att = rec
	if rec != nil && d.attGCSvc == nil {
		d.attGCSvc = make([]sim.Time, d.Geo.Channels*d.Geo.DiesPerChannel())
	}
}

// NewDevice assembles a device from its geometry, medium, channel bus and
// host link. The seed fixes the program-latency variation stream.
func NewDevice(geo Geometry, cell CellParams, bus BusParams, link Link, seed uint64) (*Device, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if link == nil {
		return nil, fmt.Errorf("nvm: device requires a host link")
	}
	d := &Device{
		Geo: geo, Cell: cell, Bus: bus,
		link:        link,
		rng:         sim.NewRNG(seed),
		chanBus:     make([]sim.Timeline, geo.Channels),
		dies:        make([][]sim.Timeline, geo.Channels),
		chCover:     make([]sim.IntervalSet, geo.Channels),
		pkgCover:    make([][]sim.IntervalSet, geo.Channels),
		chContMark:  make([]sim.Time, geo.Channels),
		dieContMark: make([][]sim.Time, geo.Channels),
	}
	for c := range d.dies {
		d.dies[c] = make([]sim.Timeline, geo.DiesPerChannel())
		d.pkgCover[c] = make([]sim.IntervalSet, geo.PackagesPerChannel)
		d.dieContMark[c] = make([]sim.Time, geo.DiesPerChannel())
	}
	d.bindMetrics(obs.NewRegistry())
	return d, nil
}

// bindMetrics points the device's counter handles into r.
func (d *Device) bindMetrics(r *obs.Registry) {
	d.reg = r
	d.cReads = r.Counter("nvm.reads")
	d.cProgs = r.Counter("nvm.programs")
	d.cErases = r.Counter("nvm.erases")
	d.cBytesRd = r.Counter("nvm.bytes_read")
	d.cBytesWr = r.Counter("nvm.bytes_written")
	d.cPAL[0] = r.Counter("nvm.pal1")
	d.cPAL[1] = r.Counter("nvm.pal2")
	d.cPAL[2] = r.Counter("nvm.pal3")
	d.cPAL[3] = r.Counter("nvm.pal4")
	d.hLatency = r.Histogram("nvm.device.latency")
	d.hRetry = r.Histogram("nvm.read.retry")
}

// Registry exposes the device's private metrics registry (work counters,
// PAL tallies, the request-latency histogram, and the derived gauges Stats
// refreshes). Absorb it into a run-level registry for export.
func (d *Device) Registry() *obs.Registry { return d.reg }

// SetProbe attaches an observability probe to the device and its host
// link: the device emits spans for every die activation and channel-bus
// transfer through it. A nil probe turns observability off.
func (d *Device) SetProbe(p *obs.Collector) {
	d.probe = p
	d.link.SetProbe(p)
	if p.Enabled() && d.busTracks == nil {
		dpc := d.Geo.DiesPerChannel()
		d.busTracks = make([]string, d.Geo.Channels)
		d.dieTracks = make([]string, d.Geo.Channels*dpc)
		for c := range d.busTracks {
			d.busTracks[c] = fmt.Sprintf("ch%02d/bus", c)
			for i := 0; i < dpc; i++ {
				d.dieTracks[c*dpc+i] = fmt.Sprintf("ch%02d/die%02d", c, i)
			}
		}
	}
}

// ChannelBusy sums the cumulative booked busy time of every channel bus.
func (d *Device) ChannelBusy() sim.Time {
	var t sim.Time
	for i := range d.chanBus {
		t += d.chanBus[i].Busy()
	}
	return t
}

// DieBusy sums the cumulative booked busy time of every die.
func (d *Device) DieBusy() sim.Time {
	var t sim.Time
	for c := range d.dies {
		for i := range d.dies[c] {
			t += d.dies[c][i].Busy()
		}
	}
	return t
}

// RegisterSeries registers the device's time-resolved telemetry: per-pool
// busy fractions for channel buses and dies, and the host link's busy
// fraction. Busy time is booked at dispatch, so a sample can include work
// scheduled past its boundary; the sampler clamps fractions at export
// (dispatch-horizon sampling).
func (d *Device) RegisterSeries(ts *timeseries.Sampler) {
	ts.AddFraction("nvm.channel_util", float64(d.Geo.Channels),
		func(sim.Time) float64 { return float64(d.ChannelBusy()) })
	ts.AddFraction("nvm.die_util", float64(d.Geo.Channels*d.Geo.DiesPerChannel()),
		func(sim.Time) float64 { return float64(d.DieBusy()) })
	ts.AddFraction("interconnect.link_occupancy", 1,
		func(sim.Time) float64 { return float64(d.link.Busy()) })
}

// regTime is the register/SRAM staging cost between a die's page register and
// the channel ("flash bus activation"): the internal flash bus runs at twice
// the external channel rate.
func (d *Device) regTime() sim.Time {
	return sim.DurationForBytes(d.Cell.PageSize, 2*d.Bus.BytesPerSec())
}

// activation groups page ops that share one cell activation: up to one op per
// plane of a single die, merged by multi-plane command.
type activation struct {
	loc Location // channel+die; plane of the first op
	ops []PageOp
}

// Submit executes all page operations of one host request, issued at 'at',
// and returns the completion time of the request. Operations are scheduled
// against the device's persistent channel/die timelines, so back-to-back
// requests pipeline naturally.
func (d *Device) Submit(at sim.Time, ops []PageOp) sim.Time {
	if len(ops) == 0 {
		return at
	}
	if !d.started || at < d.firstIssue {
		if !d.started {
			d.firstIssue = at
		}
		d.started = true
	}

	issue := at
	if oh := d.link.RequestOverhead(); oh > 0 {
		issue += oh
		d.breakdown.NonOverlappedDMA += oh
		d.att.Note(attrib.HostOverhead, oh)
	}
	attributing := d.att.DeviceActive()
	if attributing {
		for i := range d.attGCSvc {
			d.attGCSvc[i] = 0
		}
	}

	acts, interleave := d.schedule(ops)

	var (
		end        sim.Time
		multiplane bool
	)
	eraseActs := d.scErase[:0]
	for _, a := range acts {
		if len(a.ops) > 1 {
			multiplane = true
		}
		// Durable mode holds erases back behind every program of the
		// request: plane interleaving would otherwise let a victim erase
		// execute before the relocation programs and journal pages that
		// make destroying the victim safe, so a crash between the two
		// could lose acknowledged data.
		if d.media != nil && a.ops[0].Op == OpErase {
			eraseActs = append(eraseActs, a)
			continue
		}
		end = sim.MaxTime(end, d.runActivation(issue, 0, a, attributing))
	}
	d.scErase = eraseActs
	if len(eraseActs) > 0 {
		barrier := sim.MaxTime(end, issue)
		for _, a := range eraseActs {
			end = sim.MaxTime(end, d.runActivation(barrier, barrier-issue, a, attributing))
		}
	}
	dpc := d.Geo.DiesPerChannel()
	for c := range d.chanBus {
		for _, b := range d.scBuckets[c*dpc : (c+1)*dpc] {
			if len(b) > 0 {
				d.foldCover(c)
				break
			}
		}
	}

	pal := PAL1
	switch {
	case interleave && multiplane:
		pal = PAL4
	case multiplane:
		pal = PAL3
	case interleave:
		pal = PAL2
	}
	d.cPAL[pal-1].Inc()
	d.hLatency.Observe(end - at)
	if d.probe.Enabled() {
		d.probe.Span(obs.LayerNVM, "device", "submit", at, end,
			obs.Attr{Key: "ops", Value: len(ops)},
			obs.Attr{Key: "pal", Value: pal.String()})
	}

	d.lastEnd = sim.MaxTime(d.lastEnd, end)
	return end
}

// runActivation executes one activation at issueAt with its attribution
// chain. pre is the already-elapsed time from the request's issue instant
// (the durable-mode erase barrier); it is charged to the Meta component so
// the chain still telescopes from issue to completion. After a power cut
// the remaining activations are void: the device returns issueAt without
// touching any timeline, so a crashed request's completion never regresses
// below work that actually executed.
func (d *Device) runActivation(issueAt, pre sim.Time, a activation, attributing bool) sim.Time {
	if d.faults.Crashed() {
		return issueAt
	}
	if attributing {
		gc, meta := true, true
		for _, op := range a.ops {
			if !op.GC {
				gc = false
			}
			if !op.Meta {
				meta = false
			}
		}
		d.attActGC = gc
		fold := attrib.Component(-1)
		switch {
		case meta:
			fold = attrib.Meta
		case gc:
			fold = attrib.GC
		}
		d.att.StartActivationFold(fold)
		d.att.Seg(attrib.Meta, pre)
	}
	done := d.execActivation(issueAt, a)
	if attributing {
		d.att.EndActivation(done)
	}
	return done
}

// schedule buckets ops per (channel, die) in deterministic layout order,
// merges each die bucket into a sequence of activations — pairing ops on
// distinct planes of the die into multi-plane activations when the medium
// supports it and the ops share the same verb — and interleaves the per-die
// sequences round-robin (activation 0 of every die, then activation 1, ...)
// so that shared resources — the channel buses and the host link — are booked
// in approximate time order, the way the controller actually dispatches work
// across dies. It also reports die interleaving (some channel drives more
// than one die) for the request's PAL classification.
//
// Everything is built in the device's persistent scratch: the returned
// activations and their op slices are valid only until the next Submit.
func (d *Device) schedule(ops []PageOp) (out []activation, interleave bool) {
	dpc := d.Geo.DiesPerChannel()
	planes := d.Cell.Planes
	if n := d.Geo.Channels * dpc; len(d.scBuckets) != n {
		d.scBuckets = make([][]PageOp, n)
	}
	if planes > 1 && len(d.scPlane) != planes {
		d.scPlane = make([][]PageOp, planes)
		d.scPlaneHd = make([]int, planes)
	}
	buckets := d.scBuckets
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	d.scGroups = d.scGroups[:0]
	for _, op := range ops {
		idx := op.Loc.Channel*dpc + op.Loc.Die
		buckets[idx] = append(buckets[idx], op)
	}

	nDie, maxLen := 0, 0
	curCh, chDies := -1, 0
	for idx, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		if ch := idx / dpc; ch != curCh {
			curCh, chDies = ch, 0
		}
		if chDies++; chDies > 1 {
			interleave = true
		}
		if nDie == len(d.scDieActs) {
			d.scDieActs = append(d.scDieActs, nil)
		}
		acts := d.scDieActs[nDie][:0]
		if planes <= 1 {
			for i := range bucket {
				acts = append(acts, activation{loc: bucket[i].Loc, ops: bucket[i : i+1 : i+1]})
			}
		} else {
			// Queue per plane, preserving arrival order; heads advance as
			// rounds consume them.
			for p := 0; p < planes; p++ {
				d.scPlane[p] = d.scPlane[p][:0]
				d.scPlaneHd[p] = 0
			}
			for _, op := range bucket {
				p := op.Loc.Plane % planes
				d.scPlane[p] = append(d.scPlane[p], op)
			}
			for {
				gstart := len(d.scGroups)
				var verb Op
				for p := 0; p < planes; p++ {
					if d.scPlaneHd[p] >= len(d.scPlane[p]) {
						continue
					}
					head := d.scPlane[p][d.scPlaneHd[p]]
					if len(d.scGroups) == gstart {
						verb = head.Op
					} else if head.Op != verb {
						continue // different verb cannot share an activation
					}
					d.scGroups = append(d.scGroups, head)
					d.scPlaneHd[p]++
				}
				if len(d.scGroups) == gstart {
					break
				}
				// The arena may regrow under later groups; earlier group
				// slices keep the copied-out old backing, which is fine —
				// groups are read-only for the rest of the request.
				group := d.scGroups[gstart:len(d.scGroups):len(d.scGroups)]
				acts = append(acts, activation{loc: group[0].Loc, ops: group})
			}
		}
		d.scDieActs[nDie] = acts
		nDie++
		if len(acts) > maxLen {
			maxLen = len(acts)
		}
	}

	out = d.scOut[:0]
	for i := 0; i < maxLen; i++ {
		for k := 0; k < nDie; k++ {
			if a := d.scDieActs[k]; i < len(a) {
				out = append(out, a[i])
			}
		}
	}
	d.scOut = out
	return out, interleave
}

// markChan records channel busy time for the utilization probes.
func (d *Device) markChan(c int, start, end sim.Time) {
	d.chCover[c].Add(start, end)
}

// markDie records die busy time: the die's package is busy, and so is the
// channel it hangs off (the "kept busy" union).
func (d *Device) markDie(c, die int, start, end sim.Time) {
	d.chCover[c].Add(start, end)
	d.pkgCover[c][d.Geo.Package(die)].Add(start, end)
}

// foldCover folds channel c's cover sets behind its timeline frontier: the
// channel set at the least horizon of its bus and dies, and the set of each
// package this request touched at the least horizon of the package's dies
// (an untouched package's horizons did not move). Every span markChan and
// markDie record starts at or after the horizon of the timeline it books
// (cache-mode staging starts at the post-sense cursor, itself at or after
// the die's horizon), and horizons never move backwards, so no later span
// starts before the frontier. A die never used holds its sets' frontier at
// zero.
func (d *Device) foldCover(c int) {
	dies := d.dies[c]
	buckets := d.scBuckets[c*len(dies) : (c+1)*len(dies)]
	pkgs := d.Geo.PackagesPerChannel
	front := d.chanBus[c].FreeAt()
	for die := range dies {
		front = sim.MinTime(front, dies[die].FreeAt())
		if len(buckets[die]) == 0 {
			continue
		}
		// Dies p, p+pkgs, p+2·pkgs, … are the ones Geo.Package maps to p.
		p := d.Geo.Package(die)
		pf := dies[p].FreeAt()
		for q := p + pkgs; q < len(dies); q += pkgs {
			pf = sim.MinTime(pf, dies[q].FreeAt())
		}
		d.pkgCover[c][p].Fold(pf)
	}
	d.chCover[c].Fold(front)
}

// chargeDieWait charges the wait [from, start) on a die to cell contention,
// deduplicated against time already charged for that die.
func (d *Device) chargeDieWait(c, die int, from, start sim.Time) {
	mark := d.dieContMark[c][die]
	if from < mark {
		from = mark
	}
	if start > from {
		d.breakdown.CellContention += start - from
		d.dieContMark[c][die] = start
	}
}

// chargeChanWait charges the wait [from, start) on a channel bus to channel
// contention, deduplicated against time already charged for that channel.
func (d *Device) chargeChanWait(c int, from, start sim.Time) {
	mark := d.chContMark[c]
	if from < mark {
		from = mark
	}
	if start > from {
		d.breakdown.ChannelContention += start - from
		d.chContMark[c] = start
	}
}

// attEntryWait attributes a chain's entry die-wait, splitting out the
// portion induced by this request's own collection service on the die (an
// exact re-labeling: the two segments sum to the original wait). GC chains
// never split against themselves — their whole chain folds on commit.
func (d *Device) attEntryWait(dieIdx int, wait sim.Time) {
	if wait <= 0 {
		return
	}
	if gc := d.attGCSvc[dieIdx]; gc > 0 && !d.attActGC {
		if gc > wait {
			gc = wait
		}
		d.att.Seg(attrib.GC, gc)
		wait -= gc
	}
	d.att.Seg(attrib.DieWait, wait)
}

// execActivation schedules one cell activation (1..Planes page ops on a
// single die) and returns its completion time, accumulating the six-state
// breakdown along the way.
func (d *Device) execActivation(issue sim.Time, a activation) sim.Time {
	ch := &d.chanBus[a.loc.Channel]
	die := &d.dies[a.loc.Channel][a.loc.Die]
	cmd := d.Bus.CommandTime()
	reg := d.regTime()
	xfer := d.Bus.TransferTime(d.Cell.PageSize)
	dieIdx := a.loc.Channel*d.Geo.DiesPerChannel() + a.loc.Die

	// Trace tracks: one "thread" per die and per channel bus.
	probing := d.probe.Enabled()
	var dieTrack, busTrack string
	if probing {
		dieTrack, busTrack = d.dieTracks[dieIdx], d.busTracks[a.loc.Channel]
	}
	attributing := d.att.DeviceActive()
	// All-GC activations bank their die occupancy so that later host chains
	// in the same request can re-label the wait they induce (attEntryWait).
	gcAcc := attributing && d.attActGC

	switch a.ops[0].Op {
	case OpRead:
		// Command/address cycles reach the die through the channel; they are
		// a dozen bus clocks, so they are folded into the die's occupancy
		// (booking 30 ns slots on the shared-bus horizon out of time order
		// would spuriously serialize the dies).
		d.breakdown.ChannelBus += cmd
		// Sensing on the die (one tR regardless of merged plane count).
		as, ae := die.Acquire(issue, cmd+d.Cell.ReadLatency)
		d.chargeDieWait(a.loc.Channel, a.loc.Die, issue, as)
		d.breakdown.CellActivation += d.Cell.ReadLatency
		d.markDie(a.loc.Channel, a.loc.Die, as, ae)
		if attributing {
			d.attEntryWait(dieIdx, as-issue)
		}
		d.att.Seg(attrib.DieService, ae-as)
		if gcAcc {
			d.attGCSvc[dieIdx] += ae - as
		}
		if probing {
			d.probe.Span(obs.LayerNVM, dieTrack, "sense", as, ae)
		}
		// Read-retry: when the ECC budget of any merged page needs stepped
		// re-senses, the die re-runs the sense that many times before the
		// data can stage out. Each step costs a full command+tR.
		if d.faults != nil {
			retries := 0
			for _, op := range a.ops {
				if rr := d.faults.ReadPage(op.PPN); rr.Retries > retries {
					retries = rr.Retries
				}
			}
			if retries > 0 {
				step := sim.Time(retries) * (cmd + d.Cell.ReadLatency)
				rs, re := die.Acquire(ae, step)
				d.chargeDieWait(a.loc.Channel, a.loc.Die, ae, rs)
				d.breakdown.CellActivation += step
				d.markDie(a.loc.Channel, a.loc.Die, rs, re)
				d.hRetry.Observe(step)
				d.att.Seg(attrib.DieWait, rs-ae)
				d.att.Seg(attrib.Retry, re-rs)
				if gcAcc {
					d.attGCSvc[dieIdx] += re - rs
				}
				if probing {
					d.probe.Span(obs.LayerNVM, dieTrack, "read-retry", rs, re,
						obs.Attr{Key: "retries", Value: retries})
				}
				ae = re
			}
		}
		// Per merged page: register staging then data-out then DMA. In cache
		// mode the staging drains from the secondary register, leaving the
		// die free to sense the next page immediately.
		//
		// For attribution the critical page is the one completing the
		// activation (the first page reaching the maximum DMA end, matching
		// sim.MaxTime keeping the first maximum); its chain from the
		// post-sense instant — staging, bus wait, bus transfer, host-link
		// time — telescopes exactly to the activation's completion. Staging
		// is contiguous within an activation (the die horizon equals the
		// previous staging's end, trivially so in cache mode), so the
		// critical page's staging total is just its staging end minus ae.
		end := ae
		cursor := ae
		var critStage, critBusW, critBusX, critLink sim.Time
		critEnd := ae
		for range a.ops {
			var rs, re sim.Time
			if d.cacheMode {
				rs, re = cursor, cursor+reg
			} else {
				rs, re = die.Acquire(cursor, reg)
				if gcAcc {
					d.attGCSvc[dieIdx] += re - rs
				}
			}
			d.breakdown.FlashBus += reg
			d.markDie(a.loc.Channel, a.loc.Die, rs, re)
			xs, xe := ch.Acquire(re, xfer)
			d.chargeChanWait(a.loc.Channel, re, xs)
			d.breakdown.ChannelBus += xfer
			d.markChan(a.loc.Channel, xs, xe)
			if probing {
				d.probe.Span(obs.LayerNVM, dieTrack, "stage", rs, re)
				d.probe.Span(obs.LayerNVM, busTrack, "xfer", xs, xe)
			}
			de := d.link.Transfer(xe, d.Cell.PageSize)
			d.breakdown.NonOverlappedDMA += de - xe
			if attributing && de > critEnd {
				critEnd = de
				critStage = re - ae
				critBusW = xs - re
				critBusX = xe - xs
				critLink = de - xe
			}
			cursor = re
			end = sim.MaxTime(end, de)
			d.cBytesRd.Add(d.Cell.PageSize)
			d.cReads.Inc()
		}
		if attributing && critEnd > ae {
			d.att.Seg(attrib.DieService, critStage)
			d.att.Seg(attrib.BusWait, critBusW)
			d.att.Seg(attrib.BusXfer, critBusX)
			// The host-link time splits into pure wire time and queueing
			// behind other transfers; for multi-stage Chain links the wire
			// bound is the bottleneck stage's, so the split (only) is
			// approximate there — the sum stays exact.
			wire := sim.DurationForBytes(d.Cell.PageSize, d.link.BytesPerSec())
			if wire > critLink {
				wire = critLink
			}
			d.att.Seg(attrib.LinkXfer, wire)
			d.att.Seg(attrib.LinkWait, critLink-wire)
		}
		return end

	case OpProgram:
		// Host data lands in the controller first.
		dmaEnd := issue
		for range a.ops {
			dmaEnd = d.link.Transfer(dmaEnd, d.Cell.PageSize)
		}
		d.breakdown.NonOverlappedDMA += dmaEnd - issue
		if attributing {
			// Host DMA: pure wire time for the payload, the rest is
			// queueing behind other transfers on the shared link.
			total := dmaEnd - issue
			wire := sim.Time(len(a.ops)) * sim.DurationForBytes(d.Cell.PageSize, d.link.BytesPerSec())
			if wire > total {
				wire = total
			}
			d.att.Seg(attrib.LinkXfer, wire)
			d.att.Seg(attrib.LinkWait, total-wire)
			d.att.Seg(attrib.BusXfer, cmd)
		}
		// Command/address cycles are folded into the first data-in transfer
		// (see the read path for why they do not book the bus horizon).
		d.breakdown.ChannelBus += cmd
		cursor := dmaEnd + cmd
		for range a.ops {
			xs, xe := ch.Acquire(cursor, xfer)
			d.chargeChanWait(a.loc.Channel, cursor, xs)
			d.breakdown.ChannelBus += xfer
			d.markChan(a.loc.Channel, xs, xe)
			d.att.Seg(attrib.BusWait, xs-cursor)
			d.att.Seg(attrib.BusXfer, xe-xs)
			rs, re := die.Acquire(xe, reg)
			if gcAcc {
				d.attGCSvc[dieIdx] += re - rs
			}
			d.breakdown.FlashBus += reg
			d.markDie(a.loc.Channel, a.loc.Die, rs, re)
			if probing {
				d.probe.Span(obs.LayerNVM, busTrack, "xfer", xs, xe)
				d.probe.Span(obs.LayerNVM, dieTrack, "stage", rs, re)
			}
			cursor = xe
			d.cBytesWr.Add(d.Cell.PageSize)
			d.cProgs.Inc()
		}
		// One program covers all merged planes.
		lat := d.Cell.ProgramLatency(d.rng)
		ps, pe := die.Acquire(cursor, lat)
		d.chargeDieWait(a.loc.Channel, a.loc.Die, cursor, ps)
		d.breakdown.CellActivation += lat
		d.markDie(a.loc.Channel, a.loc.Die, ps, pe)
		// The wait covers the register-staging drain of this activation's
		// own data-in as well as earlier activations on the die.
		if attributing {
			d.attEntryWait(dieIdx, ps-cursor)
		}
		d.att.Seg(attrib.DieService, pe-ps)
		if gcAcc {
			d.attGCSvc[dieIdx] += pe - ps
		}
		if probing {
			d.probe.Span(obs.LayerNVM, dieTrack, "program", ps, pe)
		}
		if d.faults != nil || d.media != nil {
			for _, op := range a.ops {
				if d.faults.Crashed() {
					break
				}
				if d.faults != nil && d.faults.CrashOnOp(pe) {
					// Power cut mid-program: the in-flight page is torn
					// (payload garbage, OOB tags unlanded); later planes
					// of the activation never started.
					if d.media != nil {
						d.media.MediaProgram(op, true)
					}
					break
				}
				if d.media != nil {
					d.media.MediaProgram(op, false)
				}
				if d.faults != nil {
					d.faults.OnProgram(op.PPN)
				}
			}
		}
		return pe

	case OpErase:
		d.breakdown.ChannelBus += cmd
		es, ee := die.Acquire(issue, cmd+d.Cell.EraseLatency)
		d.chargeDieWait(a.loc.Channel, a.loc.Die, issue, es)
		d.breakdown.CellActivation += d.Cell.EraseLatency
		d.markDie(a.loc.Channel, a.loc.Die, es, ee)
		if attributing {
			d.attEntryWait(dieIdx, es-issue)
		}
		d.att.Seg(attrib.DieService, ee-es)
		if gcAcc {
			d.attGCSvc[dieIdx] += ee - es
		}
		if probing {
			d.probe.Span(obs.LayerNVM, dieTrack, "erase", es, ee)
		}
		for _, op := range a.ops {
			if d.faults.Crashed() {
				break
			}
			if d.faults != nil && d.faults.CrashOnOp(ee) {
				// Power cut mid-erase: the pulse already destroyed the
				// block's contents, so the media still clears it, but the
				// wear bump and fault report never happen.
				if d.media != nil {
					d.media.MediaErase(op, true)
				}
				break
			}
			d.cErases.Inc()
			if d.media != nil {
				d.media.MediaErase(op, false)
			}
			if d.faults != nil {
				d.faults.OnErase(op.PPN)
			}
		}
		return ee

	default:
		panic(fmt.Sprintf("nvm: unknown op %v", a.ops[0].Op))
	}
}
