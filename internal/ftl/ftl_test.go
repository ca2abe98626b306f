package ftl

import (
	"cmp"
	"slices"
	"testing"

	"oocnvm/internal/nvm"
	"oocnvm/internal/sim"
)

// smallGeo keeps superblocks tiny so GC paths are cheap to exercise:
// 2 channels x 1 package x 2 dies, 8 superblocks.
func smallGeo() nvm.Geometry {
	return nvm.Geometry{Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 2, BlocksPerPlane: 8}
}

func newSmall(t *testing.T, cell nvm.CellType) *FTL {
	t.Helper()
	f, err := New(smallGeo(), nvm.Params(cell), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(nvm.Geometry{}, nvm.Params(nvm.SLC), Config{}); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

func TestCapacityAccounting(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	cell := nvm.Params(nvm.SLC)
	wantPages := int64(smallGeo().Dies()*cell.Planes*smallGeo().BlocksPerPlane) * int64(cell.PagesPerBlock)
	if f.Pages() != wantPages {
		t.Fatalf("pages = %d, want %d", f.Pages(), wantPages)
	}
	if f.CapacityBytes() != wantPages*cell.PageSize {
		t.Fatal("capacity wrong")
	}
	if f.PageSize() != cell.PageSize {
		t.Fatal("page size wrong")
	}
}

func TestReadIdentityStriping(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	ops := f.Read(0, 4*f.PageSize())
	if len(ops) != 4 {
		t.Fatalf("4 pages -> %d ops", len(ops))
	}
	// Identity mapping stripes channel-first.
	if ops[0].Loc.Channel == ops[1].Loc.Channel {
		t.Fatal("consecutive pages on one channel; striping broken")
	}
	for _, op := range ops {
		if op.Op != nvm.OpRead {
			t.Fatal("wrong verb")
		}
	}
}

func TestReadPartialPages(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	// A sub-page read still senses the whole page.
	if got := len(f.Read(100, 10)); got != 1 {
		t.Fatalf("sub-page read -> %d ops, want 1", got)
	}
	// A 2-byte read straddling a page boundary needs both pages.
	if got := len(f.Read(f.PageSize()-1, 2)); got != 2 {
		t.Fatalf("straddling read -> %d ops, want 2", got)
	}
	if f.Read(0, 0) != nil {
		t.Fatal("zero-size read should be empty")
	}
}

func TestWriteAllocatesLog(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	ops := f.Write(0, 3*f.PageSize())
	programs := 0
	for _, op := range ops {
		if op.Op == nvm.OpProgram {
			programs++
		}
	}
	if programs != 3 {
		t.Fatalf("programs = %d, want 3", programs)
	}
	st := f.Stats()
	if st.HostWrites != 3 || st.NANDWrites != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteThenReadRemapped(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	f.Write(0, f.PageSize())
	// After the write, reading lpn 0 must hit the log location, not the
	// identity location.
	ops := f.Read(0, f.PageSize())
	if len(ops) != 1 {
		t.Fatal("read op count")
	}
	// The log fills superblock s in layout order; identity lpn 0 also maps
	// to channel 0. We can't distinguish by channel alone, so overwrite a
	// page whose identity channel differs.
	f2 := newSmall(t, nvm.SLC)
	lpn := int64(1) // identity: channel 1
	f2.Write(lpn*f2.PageSize(), f2.PageSize())
	got := f2.Read(lpn*f2.PageSize(), f2.PageSize())[0].Loc
	idWant := f2.Locate(lpn)
	if got == idWant {
		t.Fatalf("overwritten page still reads identity location %+v", got)
	}
}

func TestPreload(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	if err := f.Preload(f.CapacityBytes() / 2); err != nil {
		t.Fatal(err)
	}
	// Preloading beyond capacity minus reserve must fail.
	f2 := newSmall(t, nvm.SLC)
	if err := f2.Preload(f2.CapacityBytes()); err == nil {
		t.Fatal("over-preload accepted")
	}
}

func TestGCReclaimsInvalidatedSpace(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	// Repeatedly overwrite one small region. Each overwrite invalidates the
	// previous copy, so GC victims are nearly empty; the FTL must be able to
	// write far more than the free pool's raw size.
	region := 4 * f.PageSize()
	total := 4 * f.CapacityBytes()
	var erases int
	for written := int64(0); written < total; written += region {
		for _, op := range f.Write(0, region) {
			if op.Op == nvm.OpErase {
				erases++
			}
		}
	}
	st := f.Stats()
	if st.GCRuns == 0 || erases == 0 {
		t.Fatalf("GC never ran: %+v", st)
	}
	if st.FreeSuper < 1 {
		t.Fatal("free pool exhausted")
	}
}

func TestGCRelocatesLiveData(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	// Fill most of the device with live data (distinct lpns), then keep
	// writing: GC victims now hold live pages that must be relocated.
	pageSz := f.PageSize()
	livePages := f.Pages() * 3 / 4
	f.Write(0, livePages*pageSz)
	// Overwrite scattered pages (stride co-prime to the superblock size) so
	// invalidation spreads across superblocks and GC victims stay partially
	// live, forcing relocation.
	for i := int64(0); i < f.Pages()/2; i++ {
		f.Write(((i*7)%livePages)*pageSz, pageSz)
	}
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("GC never triggered")
	}
	if st.RelocatedPages == 0 {
		t.Fatal("GC triggered but never relocated live pages")
	}
	if wa := f.WriteAmplification(); wa <= 1 {
		t.Fatalf("write amplification %v, want > 1 with live relocation", wa)
	}
}

func TestWearLevelingPrefersLeastWorn(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	// Hammer a small region for several device lifetimes of the free pool.
	region := 2 * f.PageSize()
	for i := 0; i < int(f.Pages()); i++ {
		f.Write(0, region)
	}
	// With wear-aware allocation the spread between the most and least worn
	// superblocks stays small.
	max := f.MaxWear()
	if max == 0 {
		t.Fatal("no wear recorded")
	}
	var min int64 = 1 << 62
	for i := range f.sb {
		if int64(i) < f.preloaded {
			continue
		}
		if f.sb[i].wear < min {
			min = f.sb[i].wear
		}
	}
	if max-min > max/2+2 {
		t.Fatalf("wear spread too large: min %d max %d", min, max)
	}
}

func TestTrimInvalidates(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	f.Write(0, 8*f.PageSize())
	before := f.Stats()
	if ops := f.Erase(0, 8*f.PageSize()); ops != nil {
		t.Fatal("trim must not issue device ops under an FTL")
	}
	// Trimmed pages are unmapped: a subsequent read falls back to identity.
	got := f.Read(0, f.PageSize())[0].Loc
	if got != f.Locate(0) {
		t.Fatal("trim did not unmap")
	}
	_ = before
}

func TestLocateMatchesGeometryStriping(t *testing.T) {
	f := newSmall(t, nvm.MLC)
	geo := smallGeo()
	cell := nvm.Params(nvm.MLC)
	for lpn := int64(0); lpn < 64; lpn++ {
		if f.Locate(lpn) != geo.MapLogical(lpn, cell.Planes) {
			t.Fatalf("Locate(%d) diverges from geometry striping", lpn)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Stats {
		f := newSmall(t, nvm.SLC)
		f.Preload(f.CapacityBytes() / 4)
		for i := 0; i < 200; i++ {
			f.Write(int64(i%32)*f.PageSize(), f.PageSize())
		}
		return f.Stats()
	}
	if run() != run() {
		t.Fatal("FTL behaviour not deterministic")
	}
}

func TestTrimOfOverwrittenPreloadedPageRegression(t *testing.T) {
	// Regression: overwrite a preloaded identity page (invalidating its
	// identity slot), then trim the new copy, then trim the region again.
	// Before the dead-set fix the second trim decremented the preloaded
	// superblock's valid count a second time, driving it negative.
	f := newSmall(t, nvm.SLC)
	if err := f.Preload(f.CapacityBytes() / 4); err != nil {
		t.Fatal(err)
	}
	ps := f.PageSize()
	f.Write(0, ps) // invalidates identity slot 0
	f.Erase(0, ps) // trims the log copy; identity slot already dead
	f.Erase(0, ps) // must be a no-op for superblock 0's count
	if v := f.sb[0].valid; v < 0 {
		t.Fatalf("preloaded superblock valid count went negative: %d", v)
	}
	checkInvariants(t, f)
}

func TestRetireBlockRelocatesMappedPages(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	ps := f.PageSize()
	// Write a few pages so the active superblock holds live mapped data.
	f.Write(0, 4*ps)
	victim := f.active
	ppn := victim * f.spb // first page of the active superblock
	r := f.RetireBlock(ppn)
	if !r.OK || !r.Retired {
		t.Fatalf("retire failed: %+v", r)
	}
	if !f.sb[victim].bad {
		t.Fatal("superblock not marked bad")
	}
	// The four pages must have been relocated: reads from the bad block plus
	// re-programs elsewhere.
	reads, progs := 0, 0
	for _, op := range r.Ops {
		switch op.Op {
		case nvm.OpRead:
			reads++
			if f.superOf(op.PPN) != victim {
				t.Fatal("relocation read outside the retired superblock")
			}
		case nvm.OpProgram:
			progs++
			if f.superOf(op.PPN) == victim {
				t.Fatal("relocation programmed back onto the retired superblock")
			}
		}
	}
	if reads != 4 || progs != 4 {
		t.Fatalf("relocation traffic: %d reads, %d programs, want 4/4", reads, progs)
	}
	// Reads of the data now resolve outside the retired superblock.
	for lpn := int64(0); lpn < 4; lpn++ {
		got := f.Read(lpn*ps, ps)[0].PPN
		if f.superOf(got) == victim {
			t.Fatalf("lpn %d still reads from retired superblock", lpn)
		}
	}
	checkInvariants(t, f)
}

func TestRetireBlockRelocatesPreloadedIdentityPages(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	if err := f.Preload(f.CapacityBytes() / 4); err != nil {
		t.Fatal(err)
	}
	// Retire the first preloaded superblock: every identity page is valid and
	// must be relocated into the log.
	r := f.RetireBlock(0)
	if !r.OK || !r.Retired {
		t.Fatalf("retire failed: %+v", r)
	}
	progs := 0
	for _, op := range r.Ops {
		if op.Op == nvm.OpProgram {
			progs++
		}
	}
	if int64(progs) != f.spb {
		t.Fatalf("relocated %d pages, want the full superblock %d", progs, f.spb)
	}
	// The preloaded data is now remapped, not identity.
	if got := f.Read(0, f.PageSize())[0].PPN; f.superOf(got) == 0 {
		t.Fatal("preloaded page still reads from retired superblock")
	}
	checkInvariants(t, f)
}

func TestRetireBlockIdempotentAndExhaustion(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	r1 := f.RetireBlock(0)
	if !r1.OK || !r1.Retired {
		t.Fatalf("first retire: %+v", r1)
	}
	// Same block again: already bad, nothing to do, still OK.
	r2 := f.RetireBlock(0)
	if !r2.OK || r2.Retired || r2.Ops != nil {
		t.Fatalf("second retire of same block: %+v", r2)
	}
	// Retire superblocks until the FTL refuses (no usable free space left).
	refused := false
	for sbi := int64(1); sbi < f.super; sbi++ {
		r := f.RetireBlock(sbi * f.spb)
		if !r.OK {
			refused = true
			break
		}
	}
	if !refused {
		t.Fatal("FTL never refused retirement; free pool accounting broken")
	}
	checkInvariants(t, f)
}

func TestStatsReportGrownBad(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	before := f.Stats()
	f.RetireBlock(0)
	after := f.Stats()
	if after.GrownBadSuper != before.GrownBadSuper+1 {
		t.Fatalf("GrownBadSuper %d -> %d", before.GrownBadSuper, after.GrownBadSuper)
	}
	if after.FreeSuper != before.FreeSuper-1 {
		t.Fatalf("FreeSuper %d -> %d, want one fewer", before.FreeSuper, after.FreeSuper)
	}
}

// reserveEdge builds a drive of six 1,024-page superblocks whose log has just
// filled superblock 3, leaving 4 and 5 free, and then retires free
// superblock 5. One usable free superblock is left, below gcReserve, while
// superblock 0 holds 512 stale pages that GC can reclaim.
func reserveEdge(t *testing.T) *FTL {
	t.Helper()
	f, err := New(nvm.Geometry{Channels: 2, PackagesPerChannel: 2, DiesPerPackage: 1, BlocksPerPlane: 6},
		nvm.Params(nvm.MLC), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if f.super != 6 || f.spb != 1024 {
		t.Fatalf("geometry gives %d superblocks of %d pages, want 6 of 1024", f.super, f.spb)
	}
	ps := f.PageSize()
	f.Write(0, 3*f.spb*ps)
	f.Write(0, 512*ps)
	f.Write(3*f.spb*ps, 512*ps)
	if f.active != 3 || f.writePtr != f.spb || !f.sb[4].free || !f.sb[5].free {
		t.Fatalf("set-up left active=%d writePtr=%d, free 4=%v 5=%v",
			f.active, f.writePtr, f.sb[4].free, f.sb[5].free)
	}
	if r := f.RetireBlock(5 * f.spb); !r.Retired {
		t.Fatalf("retiring free superblock 5: %+v", r)
	}
	if st := f.Stats(); st.GCRuns != 0 || st.FreeSuper != 1 {
		t.Fatalf("set-up stats %+v, want no GC and one free superblock", st)
	}
	return f
}

// TestGCReserveCountsOnlyUsableFree pins that a superblock retired while
// free no longer counts toward the GC reserve. When it did, GC stayed idle
// below the reserve and a drive with reclaimable space ran out of free
// superblocks.
func TestGCReserveCountsOnlyUsableFree(t *testing.T) {
	t.Run("seal below reserve collects", func(t *testing.T) {
		f := reserveEdge(t)
		f.Write(4*f.spb*f.PageSize(), f.PageSize())
		if got := f.Stats().GCRuns; got != 1 {
			t.Fatalf("sealing superblock 3 with one usable free superblock ran %d GCs, want 1", got)
		}
		checkInvariants(t, f)
	})
	t.Run("overwrites keep running", func(t *testing.T) {
		f := reserveEdge(t)
		const passes = 20
		for pass := 1; pass <= passes; pass++ {
			f.Write(0, 512*f.PageSize())
			if err := f.Err(); err != nil {
				t.Fatalf("pass %d: %v after %d GC runs", pass, err, f.Stats().GCRuns)
			}
		}
		if got := f.Stats().GCRuns; got != passes {
			t.Fatalf("%d passes ran %d GCs, want one each", passes, got)
		}
		checkInvariants(t, f)
	})
}

// TestAllocTakesLeastWornLowestID pins the wear-leveling policy over random
// wear: the log allocates free superblocks in (wear, id) order and never one
// that is allocated or grown bad.
func TestAllocTakesLeastWornLowestID(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		f, err := New(nvm.Geometry{Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 1, BlocksPerPlane: 64},
			nvm.Params(nvm.SLC), Config{})
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for i := range f.sb {
			s := &f.sb[i]
			s.wear = rng.Int63n(4) // few values, so ties are common
			switch rng.Intn(4) {
			case 0:
				s.free = false // allocated
			case 1:
				s.free, s.bad = false, true
			default:
				want = append(want, int64(i))
			}
		}
		slices.SortStableFunc(want, func(a, b int64) int { return cmp.Compare(f.sb[a].wear, f.sb[b].wear) })
		for n, id := range want {
			got, ok := f.allocSuperblock()
			if !ok || got != id {
				t.Fatalf("trial %d: allocation %d took %d (ok %v), want %d", trial, n, got, ok, id)
			}
		}
		if id, ok := f.allocSuperblock(); ok {
			t.Fatalf("trial %d: allocated %d with no free superblock left", trial, id)
		}
	}
}
