package ftl

import (
	"testing"

	"oocnvm/internal/nvm"
)

// TestTrimOpenSuperblockPages trims pages that live in the currently open
// (unsealed) superblock — the regression the durable-journal work guards:
// the open superblock's valid count must drop, the mappings must vanish,
// and the freed room must be reclaimable by a later seal + GC without the
// write pointer or valid accounting going out of range.
func TestTrimOpenSuperblockPages(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	ps := f.PageSize()
	// Land a run of writes in the open superblock.
	for lpn := int64(0); lpn < 8; lpn++ {
		checkOps(t, f, f.Write(lpn*ps, ps))
	}
	if f.active < 0 {
		t.Fatal("no open superblock after writes")
	}
	open := f.active
	before := f.sb[open].valid
	if before < 8 {
		t.Fatalf("open superblock holds %d valid pages, want >= 8", before)
	}
	// Trim half of them while the superblock is still open.
	checkOps(t, f, f.Erase(0, 4*ps))
	if got := f.sb[open].valid; got != before-4 {
		t.Fatalf("open superblock valid = %d after trim, want %d", got, before-4)
	}
	for lpn := int64(0); lpn < 4; lpn++ {
		if f.l2p.has(lpn) {
			t.Fatalf("lpn %d still mapped after trim", lpn)
		}
	}
	checkInvariants(t, f)
	// The superblock must still accept programs and later seal cleanly.
	for lpn := int64(20); lpn < 28; lpn++ {
		checkOps(t, f, f.Write(lpn*ps, ps))
	}
	checkInvariants(t, f)
}

// TestTrimDeadMapRelocationInterplay exercises the dead set against GC
// relocation: trimmed preloaded identity slots must stay dead through a GC
// pass over their superblock (no resurrection, no double-decrement), and
// re-trimming them must be a no-op.
func TestTrimDeadMapRelocationInterplay(t *testing.T) {
	f := newSmall(t, nvm.SLC)
	ps := f.PageSize()
	// Preload two superblocks of identity-mapped data.
	if err := f.Preload(2 * f.spb * ps); err != nil {
		t.Fatal(err)
	}
	// Trim a band inside preloaded superblock 0: identity slots die.
	checkOps(t, f, f.Erase(0, 4*ps))
	for lpn := int64(0); lpn < 4; lpn++ {
		if !f.dead.get(lpn) {
			t.Fatalf("identity slot %d not dead after trim", lpn)
		}
	}
	valid0 := f.sb[0].valid
	// Re-trim the same band: at-most-once invalidation.
	checkOps(t, f, f.Erase(0, 4*ps))
	if f.sb[0].valid != valid0 {
		t.Fatalf("double trim moved valid count %d -> %d", valid0, f.sb[0].valid)
	}
	checkInvariants(t, f)
	// Overwrite the rest of preloaded superblock 0, making it all garbage,
	// then churn writes until GC erases it. Overwrites of live identity
	// slots must mark them dead exactly once alongside the trim-dead band.
	for lpn := int64(4); lpn < f.spb; lpn++ {
		checkOps(t, f, f.Write(lpn*ps, ps))
	}
	checkInvariants(t, f)
	if f.sb[0].valid != 0 {
		t.Fatalf("preloaded superblock still has %d valid after full invalidation", f.sb[0].valid)
	}
	// Churn overwrites to force GC; superblock 0 is an all-garbage victim.
	for i := int64(0); i < 6*f.spb; i++ {
		lpn := 4 + i%(f.spb-4)
		checkOps(t, f, f.Write(lpn*ps, ps))
		checkInvariants(t, f)
	}
	// The dead band must never have been resurrected by relocation.
	for lpn := int64(0); lpn < 4; lpn++ {
		if f.l2p.has(lpn) {
			t.Fatalf("trimmed identity slot %d resurrected by GC", lpn)
		}
		if !f.dead.get(lpn) {
			t.Fatalf("identity slot %d lost its dead mark", lpn)
		}
	}
	// Writing a dead slot again revives it as a normal mapped page.
	checkOps(t, f, f.Write(0, ps))
	if !f.l2p.has(0) {
		t.Fatal("write after trim did not remap lpn 0")
	}
	checkInvariants(t, f)
}

// TestTrimJournalsInDurableMode pins that durable-mode trims append
// versioned trim records (visible as journal flushes once a record page
// fills) and that trimming never emits data-page programs.
func TestTrimJournalsInDurableMode(t *testing.T) {
	f, err := New(smallGeo(), nvm.Params(nvm.SLC), Config{
		// One record per flushed page would be pathological; keep the page
		// small so this test sees journal traffic without thousands of ops.
		Durable: DurableConfig{Enabled: true, CheckpointEveryPages: 1 << 20, JournalEntriesPerPage: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := f.PageSize()
	count := 0
	for lpn := int64(0); lpn < 64; lpn++ {
		var torn bool
		count, torn = applyOps(f.Media(), f.Write(lpn*ps, ps), count, 0)
		if torn {
			t.Fatal("unexpected tear")
		}
	}
	base := f.Stats()
	var trimOps []nvm.PageOp
	for lpn := int64(0); lpn < 64; lpn += 2 {
		ops := f.Erase(lpn*ps, ps)
		for _, op := range ops {
			if op.Op == nvm.OpProgram && !op.Meta {
				t.Fatalf("trim emitted a data program: %+v", op)
			}
		}
		trimOps = append(trimOps, ops...)
		count, _ = applyOps(f.Media(), ops, count, 0)
	}
	if len(trimOps) == 0 {
		t.Fatal("64 page trims with 16-record journal pages flushed nothing")
	}
	if got := f.Stats().JournalPages - base.JournalPages; got == 0 {
		t.Fatal("trim journal traffic not counted in stats")
	}
}
