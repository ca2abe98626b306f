package ftl

import (
	"errors"
	"testing"

	"oocnvm/internal/nvm"
)

func newDurable(t *testing.T, cell nvm.CellType, every int64) *FTL {
	t.Helper()
	f, err := New(smallGeo(), nvm.Params(cell), Config{
		Durable: DurableConfig{Enabled: true, CheckpointEveryPages: every},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// applyOps mirrors the device's media effects for one request's op stream,
// optionally tearing it at the tearAt-th program/erase (1-based; 0 = never):
// boundaries before the tear commit cleanly, the tearing op commits torn,
// everything after it is dropped — the device's power-cut semantics.
// It returns the updated boundary count and whether the tear fired.
func applyOps(m *Media, ops []nvm.PageOp, count, tearAt int) (int, bool) {
	for _, op := range ops {
		switch op.Op {
		case nvm.OpProgram:
			count++
			if tearAt > 0 && count >= tearAt {
				m.MediaProgram(op, true)
				return count, true
			}
			m.MediaProgram(op, false)
		case nvm.OpErase:
			count++
			if tearAt > 0 && count >= tearAt {
				m.MediaErase(op, true)
				return count, true
			}
			m.MediaErase(op, false)
		}
	}
	return count, false
}

// durableWorkload drives a deterministic write/trim mix that overwrites the
// small device enough to trigger GC and several checkpoints, applying every
// emitted op to the media with an optional tear point. It returns the FTL,
// the boundary count, and whether the tear fired.
func durableWorkload(t *testing.T, tearAt int) (*FTL, int, bool) {
	t.Helper()
	f := newDurable(t, nvm.SLC, 24)
	ps := f.PageSize()
	pages := f.Pages()
	count := 0
	for i := 0; i < 900; i++ {
		lpn := int64(i*7) % (pages / 2)
		var ops []nvm.PageOp
		if i%11 == 3 {
			ops = f.Erase(lpn*ps, 2*ps)
		} else {
			ops = f.Write(lpn*ps, ps)
		}
		var torn bool
		count, torn = applyOps(f.Media(), ops, count, tearAt)
		if torn {
			return f, count, true
		}
	}
	return f, count, false
}

// TestRecoverCleanEquivalence recovers from an un-torn media image and
// requires every logical page's translation (physical page and version) to
// match the live FTL exactly, with all structural invariants intact.
func TestRecoverCleanEquivalence(t *testing.T) {
	f, _, torn := durableWorkload(t, 0)
	if torn {
		t.Fatal("untorn workload reported a tear")
	}
	rf, rep, err := Recover(smallGeo(), nvm.Params(nvm.SLC), Config{}, f.Media())
	if err != nil {
		t.Fatalf("recover: %v (report %+v)", err, rep)
	}
	if rep.TornPages != 0 {
		t.Fatalf("clean media reported %d torn pages", rep.TornPages)
	}
	if rep.Duration <= 0 {
		t.Fatal("recovery has no simulated cost")
	}
	checkInvariants(t, rf)
	for lpn := int64(0); lpn < f.Pages(); lpn++ {
		wp, wv, wok := f.Mapping(lpn)
		gp, gv, gok := rf.Mapping(lpn)
		if wok != gok || (wok && (wp != gp || wv != gv)) {
			t.Fatalf("lpn %d: live (%d v%d %v) != recovered (%d v%d %v)",
				lpn, wp, wv, wok, gp, gv, gok)
		}
	}
}

// TestRecoverTwiceIdentical requires recovery to be a pure function of the
// media image: two mounts of the same image dump byte-identical state.
func TestRecoverTwiceIdentical(t *testing.T) {
	_, count, _ := durableWorkload(t, 0)
	// Tear the image mid-stream for a harder case than the clean mount.
	f2, _, torn := durableWorkload(t, count/2)
	if !torn {
		t.Fatal("tear point never reached")
	}
	geo, cell := smallGeo(), nvm.Params(nvm.SLC)
	a, repA, errA := Recover(geo, cell, Config{}, f2.Media())
	b, repB, errB := Recover(geo, cell, Config{}, f2.Media())
	if errA != nil || errB != nil {
		t.Fatalf("recover: %v / %v", errA, errB)
	}
	if repA != repB {
		t.Fatalf("reports diverge:\n%+v\n%+v", repA, repB)
	}
	if a.DumpState() != b.DumpState() {
		t.Fatal("recovered state dumps diverge")
	}
	checkInvariants(t, a)
}

// TestRecoverTornPointsInvariants tears the workload at a spread of
// boundaries and requires every mount to hold the structural invariants,
// classify the torn page, and never map a logical page onto it.
func TestRecoverTornPointsInvariants(t *testing.T) {
	_, total, _ := durableWorkload(t, 0)
	if total < 10 {
		t.Fatalf("workload produced only %d boundaries", total)
	}
	for _, frac := range []int{10, 4, 2, 4 * total / 5, total - 1} {
		tearAt := frac
		if frac <= 10 {
			tearAt = total / frac
		}
		if tearAt < 1 {
			tearAt = 1
		}
		f, _, torn := durableWorkload(t, tearAt)
		if !torn {
			t.Fatalf("tear at %d never fired", tearAt)
		}
		rf, rep, err := Recover(smallGeo(), nvm.Params(nvm.SLC), Config{}, f.Media())
		if err != nil {
			t.Fatalf("tear %d: recover: %v", tearAt, err)
		}
		checkInvariants(t, rf)
		m := f.Media()
		for lpn := int64(0); lpn < rf.Pages(); lpn++ {
			ppn, ver, ok := rf.Mapping(lpn)
			if !ok {
				continue
			}
			oob, programmed, pageTorn := m.PageState(ppn)
			if pageTorn {
				t.Fatalf("tear %d: lpn %d mapped onto torn page %d", tearAt, lpn, ppn)
			}
			if programmed && (oob.LPN != lpn || oob.Ver != ver) {
				t.Fatalf("tear %d: lpn %d v%d maps to page %d tagged lpn=%d v%d",
					tearAt, lpn, ver, ppn, oob.LPN, oob.Ver)
			}
			if !programmed && ver > 0 {
				t.Fatalf("tear %d: lpn %d v%d maps to blank page %d", tearAt, lpn, ver, ppn)
			}
		}
		if rep.Duration <= 0 {
			t.Fatalf("tear %d: free recovery", tearAt)
		}
	}
}

// TestRecoverTornOverwriteAfterTrim writes a page twice, trims it, and
// tears the next overwrite's data program after its placement record was
// journaled. The trim was acknowledged and the torn version never was, so
// the page must mount unmapped: rolling the torn placement back to the
// copy the second write displaced would serve v1 after v2 was acked.
func TestRecoverTornOverwriteAfterTrim(t *testing.T) {
	// One record per journal page flushes every placement and trim before
	// the data program that follows it.
	f, err := New(smallGeo(), nvm.Params(nvm.SLC), Config{Durable: DurableConfig{
		Enabled: true, CheckpointEveryPages: 1 << 20, JournalEntriesPerPage: 1}})
	if err != nil {
		t.Fatal(err)
	}
	const lpn = 5
	ps := f.PageSize()
	count := 0
	count, _ = applyOps(f.Media(), f.Write(lpn*ps, ps), count, 0)
	count, _ = applyOps(f.Media(), f.Write(lpn*ps, ps), count, 0)
	count, _ = applyOps(f.Media(), f.Erase(lpn*ps, ps), count, 0)
	ops := f.Write(lpn*ps, ps)
	tearAt := count
	for _, op := range ops {
		if op.Op == nvm.OpProgram || op.Op == nvm.OpErase {
			tearAt++
		}
		if op.Op == nvm.OpProgram && !op.Meta {
			break
		}
	}
	if _, torn := applyOps(f.Media(), ops, count, tearAt); !torn {
		t.Fatal("the overwrite's data program never tore")
	}
	rf, _, err := Recover(smallGeo(), nvm.Params(nvm.SLC), Config{}, f.Media())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	checkInvariants(t, rf)
	if ppn, ver, mapped := rf.Mapping(lpn); mapped {
		t.Fatalf("trimmed lpn %d mounted at page %d with v%d; want unmapped", lpn, ppn, ver)
	}
}

// TestRecoverUnrecoverableJournal corrupts a committed journal page and
// requires the typed error plus a functioning read-only salvage mount.
func TestRecoverUnrecoverableJournal(t *testing.T) {
	f2, _, _ := durableWorkload(t, 0)
	m := f2.Media()
	if m.MetaPages() < 2 {
		t.Fatalf("only %d metadata pages", m.MetaPages())
	}
	// Corrupt the entire committed chain: every checkpoint group becomes
	// unusable and the very first journal page replay reads is unreadable,
	// which is the unrecoverable case (a committed page that acked data may
	// depend on cannot be trusted away).
	corrupted := 0
	for seq := int64(0); seq < 4*m.MetaPages(); seq++ {
		if m.CorruptMeta(seq) {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("nothing corrupted")
	}
	rf, rep, err := Recover(smallGeo(), nvm.Params(nvm.SLC), Config{}, m)
	if !errors.Is(err, ErrUnrecoverableMeta) {
		t.Fatalf("got %v, want ErrUnrecoverableMeta", err)
	}
	if !rep.ReadOnly || !errors.Is(rf.Err(), ErrUnrecoverableMeta) {
		t.Fatal("salvage mount not read-only")
	}
	checkInvariants(t, rf)
	for lpn := int64(0); lpn < rf.Pages(); lpn++ {
		if ppn, _, ok := rf.Mapping(lpn); ok {
			if _, _, pageTorn := m.PageState(ppn); pageTorn {
				t.Fatalf("salvage mapped lpn %d onto torn page %d", lpn, ppn)
			}
		}
	}
}

// TestDurableStatsAndOverhead pins that durable mode actually prices its
// metadata: journal pages flow, checkpoints fire on the configured
// interval, and the off-mode stays at zero.
func TestDurableStatsAndOverhead(t *testing.T) {
	f, _, _ := durableWorkload(t, 0)
	st := f.Stats()
	if st.JournalPages == 0 {
		t.Fatal("no journal pages written")
	}
	if st.CkptRuns == 0 || st.CkptPages == 0 {
		t.Fatal("no checkpoints taken")
	}
	plain := newSmall(t, nvm.SLC)
	plain.Write(0, plain.PageSize())
	if s := plain.Stats(); s.JournalPages != 0 || s.CkptPages != 0 || s.CkptRuns != 0 {
		t.Fatalf("non-durable FTL reports metadata traffic: %+v", s)
	}
}
