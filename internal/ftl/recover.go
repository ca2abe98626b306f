package ftl

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"oocnvm/internal/fault"
	"oocnvm/internal/nvm"
	"oocnvm/internal/sim"
)

// ErrUnrecoverableMeta is returned (wrapped) by Recover when the metadata
// chain cannot be trusted — a committed journal page is unreadable — and
// the FTL degrades to a best-effort read-only mount instead of guessing.
var ErrUnrecoverableMeta = errors.New("ftl: metadata unrecoverable")

// RecoveryReport describes one mount-time recovery.
type RecoveryReport struct {
	// CheckpointFound reports whether a complete checkpoint group was
	// usable; CheckpointSeq is its first metadata sequence number.
	CheckpointFound bool
	CheckpointSeq   int64
	// JournalPagesRead counts metadata pages read (checkpoint + journal).
	JournalPagesRead int64
	// RecordsReplayed counts delta records applied.
	RecordsReplayed int64
	// OpenSuperblock is the journal-designated log head whose OOB tags
	// were scanned (-1 when none was open).
	OpenSuperblock int64
	// ScannedPages counts data pages whose OOB tags were read.
	ScannedPages int64
	// TornPages counts pages the power cut left mid-program; TornClass is
	// the ECC ladder's verdict on them (uncorrectable by construction —
	// their OOB tags never landed).
	TornPages int64
	TornClass fault.ReadClass
	// RecoveredMaps counts mappings reconstructed from the scan beyond
	// what the journal held; RolledBackMaps counts mappings whose newest
	// placement pointed at a torn or vanished page and that fell back to
	// the superseded durable copy; DroppedMaps counts mappings dropped
	// outright because no durable copy survived (only ever data that was
	// never acknowledged).
	RecoveredMaps  int64
	RolledBackMaps int64
	DroppedMaps    int64
	// ReadOnly reports the degraded mount after unrecoverable metadata.
	ReadOnly bool
	// Duration is the simulated mount-time cost: one page read per
	// metadata page and per scanned OOB tag, plus the full retry ladder
	// for every torn page.
	Duration sim.Time
}

// Recover remounts an FTL from the durable media state a power cut left
// behind: it locates the newest complete checkpoint group, replays the
// journal chain after it (stopping at the first missing or torn page —
// a safe prefix, since records past a tear belong to the never-acked
// crashing request or are re-derivable from the scan), scans the open
// superblock's per-page OOB (LPN, version) tags to reconstruct mappings
// the journal had not yet flushed, classifies torn pages via the ECC
// ladder, validates every mapping against the media, and rebuilds
// p2l, valid counts and free flags from scratch.
//
// A committed-but-unreadable journal page breaks the chain's trust: the
// FTL then salvages what a full-media OOB scan can prove (highest version
// wins) and mounts read-only, returning the salvaged FTL alongside a
// wrapped ErrUnrecoverableMeta, which its Err keeps returning.
func Recover(geo nvm.Geometry, cell nvm.CellParams, cfg Config, m *Media) (*FTL, RecoveryReport, error) {
	cfg.Durable.Enabled = true
	f, err := New(geo, cell, cfg)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	// Adopt the surviving media; the fresh model New built is discarded,
	// and anything staged in controller RAM at the cut is gone.
	f.media = m
	for s := range m.staged {
		delete(m.staged, s)
	}
	m.nextSeq = m.maxSeq() + 1

	rep := RecoveryReport{OpenSuperblock: -1}

	// prev remembers, per logical page, the mapping the newest placement
	// superseded. If that newest placement turns out to point at a torn
	// page (the cut interrupted the overwrite after its journal record was
	// flushed), the durable contract still owes the host the previous
	// acknowledged version — which is exactly the superseded copy, still
	// untorn on media because an overwritten page can only be erased by a
	// GC pass that never committed past the tear.
	prev := make(map[int64]superseded)

	// Locate the newest complete checkpoint group: contiguous committed
	// pages from the group's first sequence, none torn or corrupt, ending
	// in a Last marker.
	var starts []int64
	seen := make(map[int64]bool)
	for _, pg := range m.meta {
		if pg.Kind == metaCkpt && !seen[pg.Ckpt] {
			seen[pg.Ckpt] = true
			starts = append(starts, pg.Ckpt)
		}
	}
	slices.Sort(starts)
	slices.Reverse(starts)
	ckptFirst, ckptLast := int64(-1), int64(-1)
	for _, first := range starts {
		last := int64(-1)
		for s := first; ; s++ {
			pg, ok := m.meta[s]
			if !ok || pg.Kind != metaCkpt || pg.Ckpt != first || pg.Corrupt {
				break
			}
			if pg.Last {
				last = s
				break
			}
		}
		if last >= 0 {
			ckptFirst, ckptLast = first, last
			break
		}
	}

	horizon := int64(0)
	if ckptFirst >= 0 {
		rep.CheckpointFound = true
		rep.CheckpointSeq = ckptFirst
		horizon = ckptLast + 1
		for s := ckptFirst; s <= ckptLast; s++ {
			rep.JournalPagesRead++
			for _, r := range m.meta[s].Recs {
				f.replayRec(r, &rep, prev)
			}
		}
	}

	// Replay the journal chain from the horizon, stopping at the first
	// missing or torn page. Checkpoint pages of newer (necessarily
	// incomplete) groups are skipped: a checkpoint is a snapshot inserted
	// into the delta stream, so deltas replay cleanly across it.
	corruptSeq := int64(-1)
	for s := horizon; ; s++ {
		pg, ok := m.meta[s]
		if !ok {
			break
		}
		if pg.Kind == metaCkpt {
			rep.JournalPagesRead++
			continue
		}
		if pg.Corrupt {
			corruptSeq = s
			break
		}
		rep.JournalPagesRead++
		if r := pg.Recs; len(r) > 0 {
			for _, rc := range r {
				f.replayRec(rc, &rep, prev)
			}
		}
	}
	if corruptSeq >= 0 {
		return f.salvage(m, rep, corruptSeq)
	}
	rep.OpenSuperblock = f.active

	// Scan the open superblock's OOB tags: placements the journal had not
	// flushed can only live here (every allocation flushes the journal
	// with its alloc record aboard). A tag wins when its version exceeds
	// the replayed one, or matches it while the replayed mapping's media
	// page is gone — the unflushed tail of a GC relocation whose victim
	// erase did land.
	if f.active >= 0 {
		base := f.active * f.spb
		for slot := int64(0); slot < f.spb; slot++ {
			ppn := base + slot
			rep.ScannedPages++
			oob, programmed, torn := m.PageState(ppn)
			if torn {
				rep.TornPages++
				continue
			}
			if !programmed || oob.LPN < 0 {
				continue
			}
			lpn := oob.LPN
			cur := f.l2p.get(lpn)
			mapped := cur != noPage
			ver := f.dur.ver.get(lpn)
			apply := oob.Ver > ver
			if !apply && oob.Ver == ver && mapped && cur != ppn {
				if got := m.data.get(cur); got.LPN != lpn {
					apply = true
				}
			}
			if apply {
				if mapped && cur != ppn {
					prev[lpn] = superseded{ppn: cur, ver: ver}
				}
				if !mapped && f.identityLive(lpn) {
					f.dead.set(lpn, true)
				}
				f.l2p.set(lpn, ppn)
				f.dur.ver.set(lpn, oob.Ver)
				rep.RecoveredMaps++
			}
		}
	}

	// Validate, roll back, or drop: every surviving mapping must point at
	// a media page whose OOB names it. A mapping that fails — its newest
	// placement record was flushed but the program itself tore, or the
	// page vanished under a journal tail the cut ate — first falls back to
	// the superseded copy it displaced: that is the last acknowledged
	// version, and it is still untorn on media (erasing it would have
	// required GC work past the tear). Only when no durable copy exists —
	// data that was never acknowledged — is the mapping dropped.
	f.l2p.each(func(lpn, ppn int64) {
		if got := m.data.get(ppn); got.LPN == lpn {
			return
		}
		if pc, had := prev[lpn]; had {
			if pg := m.data.get(pc.ppn); pg.LPN == lpn && pg.Ver == pc.ver {
				f.l2p.set(lpn, pc.ppn)
				f.dur.ver.set(lpn, pc.ver)
				rep.RolledBackMaps++
				return
			}
		}
		f.l2p.del(lpn)
		rep.DroppedMaps++
	})

	f.rebuild(m)
	f.finishReport(&rep, cell)
	return f, rep, nil
}

// superseded is the (physical page, version) pair a newer placement
// displaced — recovery's one-deep undo history for torn overwrites.
type superseded struct {
	ppn int64
	ver uint64
}

// replayRec applies one checkpoint/journal record to the recovering FTL,
// remembering displaced placements in prev (nil to disable tracking).
func (f *FTL) replayRec(r rec, rep *RecoveryReport, prev map[int64]superseded) {
	rep.RecordsReplayed++
	switch r.Kind {
	case recPreload:
		f.preloaded = r.A
	case recActive, recAlloc:
		f.active = r.A
	case recPlace:
		old := f.l2p.get(r.A)
		had := old != noPage
		if had && prev != nil && old != r.B {
			prev[r.A] = superseded{ppn: old, ver: f.dur.ver.get(r.A)}
		}
		if !had && f.identityLive(r.A) {
			f.dead.set(r.A, true)
		}
		f.l2p.set(r.A, r.B)
		f.raiseVer(r.A, r.V)
	case recTrim:
		// The trim ends the page's history: no later placement may roll
		// back to a copy displaced before it.
		f.l2p.del(r.A)
		delete(prev, r.A)
		f.raiseVer(r.A, r.V)
		if r.A < f.preloaded*f.spb {
			f.dead.set(r.A, true)
		}
	case recSeal:
		// Informational: recovery seals every superblock anyway.
	case recErase:
		f.sb[r.A].wear = int64(r.V)
	case recState:
		f.sb[r.A].wear = int64(r.V)
		if r.B&1 != 0 {
			f.sb[r.A].bad = true
		}
	case recRetire:
		f.sb[r.A].bad = true
	case recDead:
		f.dead.set(r.A, true)
	case recVer:
		f.raiseVer(r.A, r.V)
	}
}

// raiseVer lifts lpn's version to v, keeping versions monotonic.
func (f *FTL) raiseVer(lpn int64, v uint64) {
	if v > f.dur.ver.get(lpn) {
		f.dur.ver.set(lpn, v)
	}
}

// rebuild reconstructs everything derivable — p2l, valid counts, free
// flags — from the validated mapping and the media residue, then seals the
// log (the next write allocates a fresh superblock and, with sinceCkpt
// saturated, checkpoints immediately, fencing off any sequence gap the cut
// left in the journal).
func (f *FTL) rebuild(m *Media) {
	f.p2l.reset()
	valid := make([]int64, f.super)
	f.l2p.each(func(lpn, ppn int64) {
		f.p2l.set(ppn, lpn)
		valid[ppn/f.spb]++
	})
	for p := int64(0); p < f.preloaded*f.spb; p++ {
		if !f.l2p.has(p) && f.identityLive(p) {
			valid[p/f.spb]++
		}
	}
	residue := make([]int64, f.super)
	count := func(ppn int64) {
		if ppn < f.Pages() {
			residue[ppn/f.spb]++
		}
	}
	m.data.each(func(ppn int64, _ OOB) { count(ppn) })
	m.torn.each(func(ppn int64, _ bool) { count(ppn) })
	f.grownBad = 0
	for i := int64(0); i < f.super; i++ {
		s := &f.sb[i]
		s.valid = valid[i]
		s.sealed = true
		if s.bad {
			f.grownBad++
			s.free = false
			continue
		}
		s.free = residue[i] == 0 && valid[i] == 0 && i >= f.preloaded
		if s.free {
			s.sealed = false
		}
	}
	f.active = -1
	f.writePtr = 0
	f.dur.sinceCkpt = f.dur.ckptEvery
}

// finishReport prices the mount: one media read per metadata page and per
// scanned OOB tag, plus the full read-retry ladder for each torn page
// before the ECC declares it uncorrectable.
func (f *FTL) finishReport(rep *RecoveryReport, cell nvm.CellParams) {
	rep.Duration = sim.Time(rep.JournalPagesRead+rep.ScannedPages) * cell.ReadLatency
	if rep.TornPages > 0 {
		ecc := nvm.ECCFor(cell.Type)
		res := ecc.Classify(int(ecc.CodewordBytes*8/2), 0)
		rep.TornClass = res.Class
		rep.Duration += sim.Time(rep.TornPages) * sim.Time(res.Retries) * cell.ReadLatency
	}
}

// salvage is the unrecoverable-metadata path: the journal chain contains
// a committed page that cannot be read, so replayed state past it cannot
// be trusted. The FTL rebuilds a best-effort mapping from a full-media
// OOB scan (highest version wins, ties to the highest physical page) and
// mounts read-only: from here on Err returns the wrapped
// ErrUnrecoverableMeta, so a drive built over it refuses every write.
func (f *FTL) salvage(m *Media, rep RecoveryReport, corruptSeq int64) (*FTL, RecoveryReport, error) {
	rep.ReadOnly = true
	f.readOnly = fmt.Errorf("ftl: recover: journal page seq %d unreadable: %w", corruptSeq, ErrUnrecoverableMeta)
	// Partial replay state is discarded wholesale — except the preload
	// extent, whose genesis record precedes any corruption by
	// construction and which the identity fallback depends on.
	f.l2p.reset()
	f.p2l.reset()
	f.dead.reset()
	f.dur.ver.reset()
	m.data.each(func(ppn int64, oob OOB) {
		if ppn >= f.Pages() {
			return
		}
		rep.ScannedPages++
		if oob.LPN < 0 {
			return
		}
		if !f.l2p.has(oob.LPN) || oob.Ver >= f.dur.ver.get(oob.LPN) {
			f.l2p.set(oob.LPN, ppn)
			f.dur.ver.set(oob.LPN, oob.Ver)
		}
	})
	m.torn.each(func(ppn int64, _ bool) {
		if ppn < f.Pages() {
			rep.TornPages++
		}
	})
	for p := int64(0); p < f.preloaded*f.spb; p++ {
		if f.l2p.get(p) != p {
			f.dead.set(p, true)
		}
	}
	f.rebuild(m)
	f.finishReport(&rep, f.cell)
	return f, rep, f.readOnly
}

// Mapping reports the translation for one logical page: its physical page,
// its durable write version, and whether any mapping — explicit or
// preloaded-identity — exists. Crash checks use it to compare recovered
// state against the shadow oracle's acked history.
func (f *FTL) Mapping(lpn int64) (ppn int64, ver uint64, ok bool) {
	if p := f.l2p.get(lpn); p != noPage {
		return p, f.version(lpn), true
	}
	if f.identityLive(lpn) {
		return lpn, f.version(lpn), true
	}
	return 0, f.version(lpn), false
}

// DumpState renders the FTL's complete logical state deterministically —
// mappings with versions, dead slots, per-superblock state, the free pool
// — so tests can assert that same seed + same crash point recover to
// byte-identical state.
func (f *FTL) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "active=%d writePtr=%d preloaded=%d readOnly=%v grownBad=%d\n",
		f.active, f.writePtr, f.preloaded, f.readOnly != nil, f.grownBad)
	for i := int64(0); i < f.super; i++ {
		s := f.sb[i]
		fmt.Fprintf(&b, "sb %d: valid=%d wear=%d sealed=%v free=%v bad=%v\n",
			i, s.valid, s.wear, s.sealed, s.free, s.bad)
	}
	f.l2p.each(func(lpn, ppn int64) {
		fmt.Fprintf(&b, "map %d -> %d v%d\n", lpn, ppn, f.version(lpn))
	})
	f.dead.each(func(lpn int64, _ bool) {
		fmt.Fprintf(&b, "dead %d\n", lpn)
	})
	for i, s := range f.sb {
		if s.free {
			fmt.Fprintf(&b, "free %d wear=%d\n", i, s.wear)
		}
	}
	return b.String()
}
