package ftl

import (
	"testing"

	"oocnvm/internal/nvm"
)

// checkInvariants asserts the FTL's structural invariants: the forward and
// reverse maps are mutually inverse, per-superblock valid counts match the
// population they summarize and never leave [0, spb], no mapped or
// allocatable state points at a grown-bad superblock, and the active
// superblock is sane.
func checkInvariants(t *testing.T, f *FTL) {
	t.Helper()
	mapped, reverse := 0, 0
	f.l2p.each(func(lpn, ppn int64) {
		mapped++
		if back := f.p2l.get(ppn); back != lpn {
			t.Fatalf("l2p[%d]=%d but p2l[%d]=%d", lpn, ppn, ppn, back)
		}
		if f.sb[f.superOf(ppn)].bad {
			t.Fatalf("lpn %d mapped onto grown-bad superblock %d", lpn, f.superOf(ppn))
		}
	})
	f.p2l.each(func(int64, int64) { reverse++ })
	if mapped != reverse {
		t.Fatalf("map sizes diverge: l2p %d, p2l %d", mapped, reverse)
	}
	pre := f.preloaded * f.spb
	for v := int64(0); v < f.super; v++ {
		s := &f.sb[v]
		if s.valid < 0 || s.valid > f.spb {
			t.Fatalf("superblock %d valid count %d outside [0, %d]", v, s.valid, f.spb)
		}
		if s.bad {
			continue // retired: its population was relocated, count is frozen
		}
		want := int64(0)
		for p := v * f.spb; p < (v+1)*f.spb; p++ {
			if f.p2l.has(p) {
				want++
			} else if p < pre && !f.dead.get(p) {
				want++ // surviving identity-mapped preloaded page
			}
		}
		if s.valid != want {
			t.Fatalf("superblock %d valid=%d but population=%d", v, s.valid, want)
		}
	}
	if f.active >= 0 {
		if f.sb[f.active].bad {
			t.Fatalf("active superblock %d is grown-bad", f.active)
		}
		if f.writePtr < 0 || f.writePtr > f.spb {
			t.Fatalf("write pointer %d outside superblock", f.writePtr)
		}
	}
	for v := range f.sb {
		if f.sb[v].bad && f.sb[v].free {
			t.Fatalf("grown-bad superblock %d still marked free", v)
		}
	}
}

// checkOps asserts emitted device operations never touch a grown-bad
// superblock with a program (GC and retirement must relocate elsewhere).
func checkOps(t *testing.T, f *FTL, ops []nvm.PageOp) {
	t.Helper()
	for _, op := range ops {
		if op.PPN < 0 || op.PPN >= f.Pages() {
			t.Fatalf("op %v PPN %d outside device", op.Op, op.PPN)
		}
		if op.Op == nvm.OpProgram && f.sb[f.superOf(op.PPN)].bad {
			t.Fatalf("program onto grown-bad superblock %d", f.superOf(op.PPN))
		}
	}
}

// FuzzFTLMapping drives a random interleaving of writes, trims, reads and
// grown-bad block retirements and asserts the mapping invariants after every
// step. The corpus bytes decode to (verb, page, length) triples.
func FuzzFTLMapping(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 5, 2, 1, 0, 4, 3, 9, 0})
	f.Add([]byte{1, 200, 3, 0, 0, 7, 3, 0, 0, 3, 64, 0, 0, 128, 2})
	f.Add([]byte{3, 0, 0, 3, 1, 0, 3, 2, 0, 3, 3, 0, 3, 4, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ftl, err := New(
			nvm.Geometry{Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 2, BlocksPerPlane: 8},
			nvm.Params(nvm.SLC), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 && data[0]&1 == 1 {
			if err := ftl.Preload(ftl.CapacityBytes() / 4); err != nil {
				t.Fatal(err)
			}
			data = data[1:]
		}
		ps := ftl.PageSize()
		pages := ftl.Pages()
		// The logical footprint stays under a quarter of capacity and at most
		// two superblocks may be retired — mirroring the controller contract
		// (a small spare budget, then read-only). Without those bounds live
		// data can legitimately exceed the shrunken writable capacity, which
		// no FTL can recover from.
		span := pages / 4
		retireBudget := 2
		for len(data) >= 3 {
			verb, a, b := data[0]%4, int64(data[1]), int64(data[2])
			data = data[3:]
			lpn := (a*251 + b) % span
			n := 1 + b%4
			switch verb {
			case 0:
				checkOps(t, ftl, ftl.Write(lpn*ps, n*ps))
			case 1:
				if got := ftl.Erase(lpn*ps, n*ps); got != nil {
					t.Fatal("trim emitted device ops")
				}
			case 2:
				for _, op := range ftl.Read(lpn*ps, n*ps) {
					if op.Op != nvm.OpRead {
						t.Fatalf("read translated to %v", op.Op)
					}
					if op.PPN < 0 || op.PPN >= pages {
						t.Fatalf("read PPN %d outside device", op.PPN)
					}
				}
			case 3:
				if retireBudget == 0 {
					continue
				}
				ppn := (a*251 + b) % pages
				r := ftl.RetireBlock(ppn)
				if r.Retired {
					retireBudget--
					checkOps(t, ftl, r.Ops)
					if !ftl.sb[ftl.superOf(ppn)].bad {
						t.Fatal("retired superblock not marked bad")
					}
				}
			}
			checkInvariants(t, ftl)
		}
	})
}
