// Package ftl implements the flash translation layer that conventional
// file-system configurations run on top of (paper Figure 4a). It provides
// page-granular logical-to-physical mapping, log-structured writes striped
// over all channels/planes/dies in superblock units, greedy garbage
// collection with valid-page relocation, and wear-aware free-block selection.
//
// UFS configurations bypass this layer entirely (Figure 4b): "UFS can be
// seen to both replace existing file systems but also, and more importantly,
// the underlying FTL of the SSD."
package ftl

import (
	"errors"
	"fmt"

	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/pool"
	"oocnvm/internal/sim"
)

// ErrNoFreeSuperblock is returned (wrapped) by the drive for the request
// whose write found the free pool empty: the log has nowhere left to place
// a page, so the drive degrades to read-only.
var ErrNoFreeSuperblock = errors.New("ftl: free superblock pool exhausted")

// FTL is a page-mapped translation layer over one device's geometry.
type FTL struct {
	geo   nvm.Geometry
	cell  nvm.CellParams
	rowsz int64 // pages per "row": Channels * Planes * DiesPerChannel
	ppb   int64 // pages per eraseblock
	spb   int64 // pages per superblock: rowsz * ppb
	super int64 // number of superblocks

	l2p table[int64] // overrides; absent means identity (preloaded layout)
	p2l table[int64] // reverse map for relocation; absent means unmapped
	// dead marks preloaded-region identity slots that are no longer valid
	// (overwritten or trimmed). Without it a trim of an overwritten
	// preloaded page would double-decrement the superblock's valid count,
	// and retirement could relocate stale identity data.
	dead table[bool]

	sb        []superblock // per-superblock state; its free flags are the free pool
	active    int64        // currently filling superblock, -1 if none
	writePtr  int64        // next page slot within the active superblock
	inGC      bool         // guards against reentrant garbage collection
	preloaded int64        // superblocks occupied by preloaded, identity-mapped data
	exhausted bool         // a page found no free superblock; see Err

	// Statistics.
	gcRuns     int64
	relocated  int64
	hostWrites int64
	nandWrites int64
	grownBad   int64

	// Durable-metadata model (nil when Config.Durable is off): journal
	// and checkpoint bookkeeping, the simulated media state, and the
	// wrapped ErrUnrecoverableMeta a salvage mount latches (see Err).
	dur      *durState
	media    *Media
	readOnly error

	probe *obs.Collector
	// mapc counts map lookups, nil unless a collecting probe is attached.
	// A lookup runs once per page, so it holds counter handles.
	mapc *mapCounters
	tap  nvm.MappingTap

	// opPool, when the drive attaches one, recycles the page-op slices the
	// host-facing translations (Read/Write/Erase) return. opRef is the live
	// borrow: the drive is a single goroutine with one outstanding
	// translation at a time, borrowed here and released by ReleaseOps once
	// the request's scheduling is complete. Cold paths (RetireBlock) keep
	// allocating their own slices.
	opPool *pool.Buffers[nvm.PageOp]
	opRef  pool.Ref[nvm.PageOp]
}

// SetOpPool attaches the drive's per-instance page-op free list. Nil leaves
// translations allocating fresh slices (the behavior outside a drive).
func (f *FTL) SetOpPool(p *pool.Buffers[nvm.PageOp]) { f.opPool = p }

// takeOps returns the slice a host-facing translation builds into: a pooled
// borrow when the drive attached a free list, a fresh allocation otherwise.
func (f *FTL) takeOps(hint int) []nvm.PageOp {
	if f.opPool == nil {
		return make([]nvm.PageOp, 0, hint)
	}
	f.opRef = f.opPool.Get(hint)
	return f.opRef.Slice()
}

// ReleaseOps returns a translation's page-op slice to the drive's pool; the
// slice (and any aliases) must not be touched afterwards. Slices that were
// never borrowed — nil translations, cold-path allocations — are ignored.
func (f *FTL) ReleaseOps(ops []nvm.PageOp) {
	if f.opPool == nil || !f.opRef.Valid() {
		return
	}
	f.opPool.Put(f.opRef, ops)
	f.opRef = pool.Ref[nvm.PageOp]{}
}

// SetProbe attaches an observability probe: map-lookup and GC counters, and
// the erase-amplification inputs (host vs NAND writes, relocations).
func (f *FTL) SetProbe(p *obs.Collector) {
	f.probe = p
	f.mapc = nil
	if p.Enabled() {
		f.mapc = &mapCounters{probe: p}
	}
}

// mapCounters counts ftl.map.lookups and ftl.map.remapped. Each handle is
// bound at its first count, so a metric appears once it is counted.
type mapCounters struct {
	probe             *obs.Collector
	lookups, remapped *obs.Counter
}

func (c *mapCounters) count(remapped bool) {
	if c.lookups == nil {
		c.lookups = c.probe.Counter("ftl.map.lookups")
	}
	c.lookups.Inc()
	if remapped {
		if c.remapped == nil {
			c.remapped = c.probe.Counter("ftl.map.remapped")
		}
		c.remapped.Inc()
	}
}

// SetMappingTap attaches a conformance tap observing every placement,
// lookup and trim this FTL performs. Nil detaches.
func (f *FTL) SetMappingTap(t nvm.MappingTap) { f.tap = t }

type superblock struct {
	valid  int64
	wear   int64
	sealed bool
	// free marks an erased superblock the log may allocate. A grown-bad
	// superblock is never free.
	free bool
	// bad marks a grown-bad superblock: retired from circulation after a
	// program or erase failure, never allocated or collected again.
	bad bool
}

// gcReserve is the free-superblock low-water mark that triggers GC.
const gcReserve = 2

// Config tunes the FTL.
type Config struct {
	// Durable enables the crash-consistent metadata model: per-page OOB
	// tags, an L2P delta journal and periodic mapping-table checkpoints.
	Durable DurableConfig
}

// DefaultCheckpointPages is the mapping-table checkpoint interval, in host
// pages, of a durable FTL whose config names none: four superblocks' worth.
func DefaultCheckpointPages(geo nvm.Geometry, cell nvm.CellParams) int64 {
	return 4 * int64(geo.Channels*cell.Planes*geo.DiesPerChannel()*cell.PagesPerBlock)
}

// New creates an FTL over the given geometry and medium.
func New(geo nvm.Geometry, cell nvm.CellParams, cfg Config) (*FTL, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	f := &FTL{
		geo:    geo,
		cell:   cell,
		rowsz:  int64(geo.Channels * cell.Planes * geo.DiesPerChannel()),
		ppb:    int64(cell.PagesPerBlock),
		super:  int64(geo.BlocksPerPlane),
		l2p:    newTable[int64](noPage),
		p2l:    newTable[int64](noPage),
		active: -1,
	}
	f.spb = f.rowsz * f.ppb
	f.sb = make([]superblock, f.super)
	for i := range f.sb {
		f.sb[i].free = true
	}
	if cfg.Durable.Enabled {
		d := cfg.Durable
		if d.CheckpointEveryPages <= 0 {
			d.CheckpointEveryPages = DefaultCheckpointPages(geo, cell)
		}
		if d.JournalEntriesPerPage <= 0 {
			d.JournalEntriesPerPage = int(cell.PageSize / 16)
		}
		if d.JournalEntriesPerPage <= 0 {
			d.JournalEntriesPerPage = 16
		}
		f.dur = &durState{
			perPage:   d.JournalEntriesPerPage,
			ckptEvery: d.CheckpointEveryPages,
		}
		f.media = newMedia(f.Pages(), f.spb, f.rowsz, f.ppb)
	}
	return f, nil
}

// Pages reports the device's total page population.
func (f *FTL) Pages() int64 { return f.super * f.spb }

// CapacityBytes reports the device's raw capacity.
func (f *FTL) CapacityBytes() int64 { return f.Pages() * f.cell.PageSize }

// PageSize reports the translation granularity.
func (f *FTL) PageSize() int64 { return f.cell.PageSize }

// Locate maps a physical page number to its resources. Pages stripe
// channel-first, plane-second, die-third within a "row"; ppb consecutive
// rows of one die-plane form an eraseblock, and the eraseblocks of one row
// group across all die-planes form a superblock.
func (f *FTL) Locate(ppn int64) nvm.Location {
	return f.geo.MapLogical(ppn, f.cell.Planes)
}

func (f *FTL) superOf(ppn int64) int64 { return ppn / f.spb }

// Preload marks the first `bytes` of the logical space as resident,
// identity-mapped, fully valid data (the OoC dataset staged onto the SSD
// before computation). It returns an error if the data exceeds capacity
// minus the GC reserve.
func (f *FTL) Preload(bytes int64) error {
	pages := (bytes + f.cell.PageSize - 1) / f.cell.PageSize
	supers := (pages + f.spb - 1) / f.spb
	if supers > f.super-gcReserve {
		return fmt.Errorf("ftl: preload of %d bytes needs %d superblocks, only %d available",
			bytes, supers, f.super-gcReserve)
	}
	for i := int64(0); i < supers; i++ {
		f.sb[i] = superblock{valid: f.spb, sealed: true}
	}
	f.preloaded = supers
	if f.dur != nil {
		// The identity-mapped dataset is durable content: version 0 pages
		// at their identity locations, plus a genesis journal record so a
		// crash before the first checkpoint still recovers the preload
		// extent. Preload runs before the device exists, so the genesis
		// page commits directly rather than riding a request.
		for p := int64(0); p < supers*f.spb; p++ {
			f.media.data.set(p, OOB{LPN: p, Ver: 0})
		}
		f.media.commitDirect(metaPage{Kind: metaJournal,
			Recs: []rec{{Kind: recPreload, A: supers}}})
		f.dur.journalPages++
	}
	return nil
}

// lookup returns the physical page currently holding lpn.
func (f *FTL) lookup(lpn int64) int64 {
	ppn, remapped := f.physical(lpn)
	if f.mapc != nil {
		f.mapc.count(remapped)
	}
	return ppn
}

// physical returns the physical page holding lpn, counting nothing, and
// whether the map overrides the identity (preloaded) layout for it.
func (f *FTL) physical(lpn int64) (int64, bool) {
	if ppn := f.l2p.get(lpn); ppn != noPage {
		return ppn, true
	}
	return lpn, false
}

// Read translates a byte-addressed read into page operations.
func (f *FTL) Read(offset, size int64) []nvm.PageOp {
	first := offset / f.cell.PageSize
	last := (offset + size - 1) / f.cell.PageSize
	if size <= 0 {
		return nil
	}
	ops := f.takeOps(int(last - first + 1))
	for lpn := first; lpn <= last; lpn++ {
		ppn := f.lookup(lpn) % f.Pages()
		if f.tap != nil {
			f.tap.MapRead(lpn, ppn)
		}
		ops = append(ops, nvm.PageOp{Op: nvm.OpRead, Loc: f.Locate(ppn), PPN: ppn})
	}
	return ops
}

// Locations appends to dst the die locations Read would use for the range,
// without Read's side effects: it counts no lookup, taps nothing and
// borrows no pooled slice.
func (f *FTL) Locations(offset, size int64, dst []nvm.Location) []nvm.Location {
	if size <= 0 {
		return dst
	}
	first := offset / f.cell.PageSize
	last := (offset + size - 1) / f.cell.PageSize
	for lpn := first; lpn <= last; lpn++ {
		ppn, _ := f.physical(lpn)
		dst = append(dst, f.Locate(ppn%f.Pages()))
	}
	return dst
}

// Write translates a byte-addressed write into page programs, appending to
// the active superblock. The returned slice may also contain relocation
// reads/programs and erases when garbage collection was required. Once the
// free pool has run dry (see Err) no further page is placed.
func (f *FTL) Write(offset, size int64) []nvm.PageOp {
	if size <= 0 {
		return nil
	}
	first := offset / f.cell.PageSize
	last := (offset + size - 1) / f.cell.PageSize
	// A due checkpoint rides ahead of the write that triggered it, so the
	// journal the snapshot supersedes is already flushed and bounded.
	ops := f.maybeCheckpoint(f.takeOps(int(last - first + 1)))
	for lpn := first; lpn <= last && !f.exhausted; lpn++ {
		f.hostWrites++
		ops = f.program(ops, lpn, true)
	}
	f.probe.Count("ftl.host_writes", last-first+1)
	return ops
}

// program appends one logical page to the log, running GC first if the free
// pool is exhausted, appending the emitted device operations to ops. host
// marks a host write (bumping the page's durable version), as opposed to a
// GC or retirement relocation (which moves the existing version). When no
// free superblock is left it leaves the page unplaced and latches Err.
func (f *FTL) program(ops []nvm.PageOp, lpn int64, host bool) []nvm.PageOp {
	if f.active < 0 || f.writePtr >= f.spb {
		if f.active >= 0 {
			f.sb[f.active].sealed = true
			ops = f.appendRec(ops, rec{Kind: recSeal, A: f.active})
		}
		ops = f.maybeGC(ops)
		// GC relocation re-enters program and may already have opened (and
		// partially filled) a fresh superblock; allocating unconditionally
		// here would abandon it mid-fill and strand its valid pages.
		if f.active < 0 || f.writePtr >= f.spb {
			id, ok := f.allocSuperblock()
			if !ok {
				f.exhausted = true
				return ops
			}
			f.active = id
			f.writePtr = 0
			// Every allocation flushes the journal with its alloc record
			// aboard: the newest replayable alloc then always designates
			// the true open superblock, confining unflushed placements to
			// the one superblock recovery scans by OOB tag.
			if f.dur != nil {
				f.dur.buf = append(f.dur.buf, rec{Kind: recAlloc, A: f.active})
				ops = f.flushJournal(ops)
			}
		}
	}
	f.unmap(lpn)
	ppn := f.active*f.spb + f.writePtr
	f.writePtr++
	f.l2p.set(lpn, ppn)
	f.p2l.set(ppn, lpn)
	if f.tap != nil {
		f.tap.MapWrite(lpn, ppn)
	}
	f.sb[f.active].valid++
	f.nandWrites++
	f.probe.Count("ftl.nand_writes", 1)
	var ver uint64
	if f.dur != nil {
		ver = f.dur.ver.get(lpn)
		if host {
			ver++
			f.dur.ver.set(lpn, ver)
			f.dur.sinceCkpt++
		}
		ops = f.appendRec(ops, rec{Kind: recPlace, A: lpn, B: ppn, V: ver})
	}
	ops = append(ops, nvm.PageOp{Op: nvm.OpProgram, Loc: f.Locate(ppn), PPN: ppn, LPN: lpn, Ver: ver})
	return ops
}

// unmap drops lpn's current copy, a mapped page or a live preloaded identity
// slot, and reports whether there was one. It is the only place a
// superblock's valid count falls.
func (f *FTL) unmap(lpn int64) bool {
	if ppn := f.l2p.get(lpn); ppn != noPage {
		f.sb[f.superOf(ppn)].valid--
		f.p2l.del(ppn)
		f.l2p.del(lpn)
		return true
	}
	if f.identityLive(lpn) {
		f.sb[f.superOf(lpn)].valid--
		f.dead.set(lpn, true)
		return true
	}
	return false
}

// identityLive reports whether lpn's preloaded data still lives in its
// identity slot: never overwritten, trimmed or relocated.
func (f *FTL) identityLive(lpn int64) bool {
	return lpn < f.preloaded*f.spb && !f.dead.get(lpn)
}

// allocSuperblock takes the free superblock with the least wear, the lowest
// id among equals (wear leveling). It reports false when none is left.
func (f *FTL) allocSuperblock() (int64, bool) {
	id := int64(-1)
	for i := range f.sb {
		if f.sb[i].free && (id < 0 || f.sb[i].wear < f.sb[id].wear) {
			id = int64(i)
		}
	}
	if id < 0 {
		return 0, false
	}
	f.sb[id] = superblock{wear: f.sb[id].wear}
	return id, true
}

// Err reports why the FTL takes no more writes: the wrapped
// ErrUnrecoverableMeta after a salvage mount, ErrNoFreeSuperblock once a
// page found no free superblock to go to, and nil otherwise.
func (f *FTL) Err() error {
	if f.readOnly != nil {
		return f.readOnly
	}
	if f.exhausted {
		return ErrNoFreeSuperblock
	}
	return nil
}

// maybeGC reclaims sealed superblocks until the free pool meets the reserve.
// It refuses to run reentrantly: collect's relocation programs call back
// into program, and a nested GC round could pick the victim an outer round
// is still relocating out of, and erase it under pages not yet moved.
func (f *FTL) maybeGC(ops []nvm.PageOp) []nvm.PageOp {
	if f.inGC {
		return ops
	}
	f.inGC = true
	defer func() { f.inGC = false }()
	for f.usableFree() < gcReserve {
		victim := f.pickVictim()
		if victim < 0 {
			break // nothing reclaimable
		}
		// Relocation cannot collect again, so a victim whose valid pages
		// overflow what the log can still take would strand them mid-copy.
		if f.sb[victim].valid > f.room() {
			break
		}
		ops = f.collect(ops, victim)
	}
	return ops
}

// room counts the pages the log can take without collecting: the open
// superblock's free slots plus every usable free superblock.
func (f *FTL) room() int64 {
	n := int64(f.usableFree()) * f.spb
	if f.active >= 0 {
		n += f.spb - f.writePtr
	}
	return n
}

// pickVictim chooses the sealed, non-preloaded superblock with the fewest
// valid pages (greedy GC).
func (f *FTL) pickVictim() int64 {
	best := int64(-1)
	bestValid := f.spb + 1
	for i := f.preloaded; i < f.super; i++ {
		s := &f.sb[i]
		if s.free || s.bad || !s.sealed || i == f.active {
			continue
		}
		if s.valid < bestValid && s.valid < f.spb {
			// A fully-valid victim reclaims nothing: collecting it only
			// copies the superblock elsewhere, and GC would loop on such
			// victims forever once grown-bad blocks eat the slack.
			bestValid = s.valid
			best = i
		}
	}
	return best
}

// collect relocates a victim's valid pages into the log and erases it,
// appending the traffic to ops.
func (f *FTL) collect(ops []nvm.PageOp, victim int64) []nvm.PageOp {
	f.gcRuns++
	f.probe.Count("ftl.gc.runs", 1)
	start := len(ops)
	ops, moved := f.relocate(ops, victim)
	// Erase every eraseblock of the superblock: one per die-plane.
	base := victim * f.spb
	for r := int64(0); r < f.rowsz; r++ {
		ops = append(ops, nvm.PageOp{Op: nvm.OpErase, Loc: f.Locate(base + r), PPN: base + r})
	}
	s := &f.sb[victim]
	s.wear++
	s.free = true
	s.sealed = false
	ops = f.appendRec(ops, rec{Kind: recErase, A: victim, V: uint64(s.wear)})
	f.probe.Count("ftl.gc.relocated_pages", moved)
	f.probe.Count("ftl.gc.erases", f.rowsz)
	// Everything this collection emitted — relocation reads, the programs
	// they re-entered through the normal log path (program cannot recurse
	// into GC here), and the victim erases — is garbage-collection traffic;
	// latency attribution charges an all-GC activation to the GC component.
	for i := start; i < len(ops); i++ {
		ops[i].GC = true
	}
	return ops
}

// relocate moves superblock v's valid pages, mapped or preloaded identity,
// into the log: a read of each, then a program through the normal write
// path, whose unmap invalidates the old copy. It reports how many pages
// moved.
func (f *FTL) relocate(ops []nvm.PageOp, v int64) ([]nvm.PageOp, int64) {
	moved := int64(0)
	base := v * f.spb
	for p := base; p < base+f.spb; p++ {
		lpn := f.p2l.get(p)
		if lpn == noPage {
			if !f.identityLive(p) {
				continue
			}
			lpn = p
		}
		ops = append(ops, nvm.PageOp{Op: nvm.OpRead, Loc: f.Locate(p), PPN: p})
		moved++
		ops = f.program(ops, lpn, false)
	}
	f.relocated += moved
	return ops, moved
}

// Stats reports FTL activity counters.
type Stats struct {
	GCRuns         int64
	RelocatedPages int64
	HostWrites     int64
	NANDWrites     int64
	FreeSuper      int
	GrownBadSuper  int64
	// Durable-metadata traffic (zero when the model is off): journal
	// delta pages, checkpoint pages, and checkpoint runs.
	JournalPages int64
	CkptPages    int64
	CkptRuns     int64
}

// Stats snapshots the counters. Write amplification is
// NANDWrites/HostWrites when HostWrites > 0.
func (f *FTL) Stats() Stats {
	s := Stats{
		GCRuns:         f.gcRuns,
		RelocatedPages: f.relocated,
		HostWrites:     f.hostWrites,
		NANDWrites:     f.nandWrites,
		FreeSuper:      f.usableFree(),
		GrownBadSuper:  f.grownBad,
	}
	if f.dur != nil {
		s.JournalPages = f.dur.journalPages
		s.CkptPages = f.dur.ckptPages
		s.CkptRuns = f.dur.ckptRuns
	}
	return s
}

// RegisterSeries registers the FTL's time-resolved telemetry: GC runs and
// relocated pages per interval, plus the running write amplification and the
// free-pool depth as instantaneous gauges.
func (f *FTL) RegisterSeries(ts *timeseries.Sampler) {
	ts.AddDelta("ftl.gc_runs", func(sim.Time) float64 { return float64(f.gcRuns) })
	ts.AddDelta("ftl.gc_relocated_pages", func(sim.Time) float64 { return float64(f.relocated) })
	ts.AddGauge("ftl.write_amplification", func(sim.Time) float64 { return f.WriteAmplification() })
	ts.AddGauge("ftl.free_superblocks", func(sim.Time) float64 { return float64(f.usableFree()) })
	// Durable-metadata series register only when the model is on, keeping
	// reports byte-identical for volatile configurations.
	if f.dur != nil {
		ts.AddDelta("ftl.journal_pages", func(sim.Time) float64 { return float64(f.dur.journalPages) })
		ts.AddDelta("ftl.ckpt_pages", func(sim.Time) float64 { return float64(f.dur.ckptPages) })
	}
}

// usableFree counts the superblocks the log may allocate.
func (f *FTL) usableFree() int {
	n := 0
	for i := range f.sb {
		if f.sb[i].free {
			n++
		}
	}
	return n
}

// RetireBlock implements grown-bad-block handling for the ssd controller:
// the superblock containing the failed physical page is retired from
// circulation (the superblock is this FTL's allocation and erase unit), its
// still-valid pages — mapped or preloaded-identity — are relocated into the
// log, and the mapping is updated so subsequent reads find the moved data.
// OK is false when no usable free superblock remains to relocate into, which
// the controller must treat as the end of the device's writable life.
func (f *FTL) RetireBlock(ppn int64) nvm.Retirement {
	v := f.superOf(ppn % f.Pages())
	s := &f.sb[v]
	if s.bad {
		return nvm.Retirement{OK: true}
	}
	// The relocation target space is the log's room less the victim's own
	// share of it: its whole superblock if it is free, or its unwritten tail
	// if it is the active one. Refusing when the victim's valid pages exceed
	// it — or when nothing writable would remain at all — keeps
	// allocSuperblock from ever hitting an empty pool mid-relocation and
	// stops the device retiring its last blocks.
	room := f.room()
	if s.free {
		room -= f.spb
	} else if v == f.active {
		room -= f.spb - f.writePtr
	}
	// Demand a full superblock of slack beyond the relocated pages: retiring
	// into exactly-fitting space leaves the log nowhere to cycle its active
	// superblock, and GC would spin over fully-valid victims forever.
	if room == 0 || s.valid+f.spb > room {
		return nvm.Retirement{}
	}
	f.grownBad++
	f.probe.Count("ftl.grown_bad_superblocks", 1)
	if v == f.active {
		f.active = -1
		f.writePtr = 0
	}
	s.bad = true
	s.free = false
	s.sealed = true
	// Retirement is a cold path: it builds its own slice rather than
	// borrowing the translation pool, which may already be lent out to the
	// request whose failure triggered this retirement.
	var ops []nvm.PageOp
	// The grown-bad verdict flushes immediately: recovery must never
	// allocate from (or scan garbage in) a superblock that failed.
	if f.dur != nil {
		f.dur.buf = append(f.dur.buf, rec{Kind: recRetire, A: v})
		ops = f.flushJournal(ops)
	}
	// Relocation's programs may collect first; GC never picks a bad
	// superblock, so it leaves the victim's pages where they are.
	ops, moved := f.relocate(ops, v)
	if moved > 0 {
		f.probe.Count("ftl.retire.relocated_pages", moved)
	}
	return nvm.Retirement{Ops: ops, Retired: true, OK: true}
}

// WriteAmplification returns NAND writes per host write (1.0 = none).
func (f *FTL) WriteAmplification() float64 {
	if f.hostWrites == 0 {
		return 0
	}
	return float64(f.nandWrites+f.relocated) / float64(f.hostWrites)
}

// MaxWear returns the highest superblock erase count.
func (f *FTL) MaxWear() int64 {
	var m int64
	for i := range f.sb {
		if f.sb[i].wear > m {
			m = f.sb[i].wear
		}
	}
	return m
}
