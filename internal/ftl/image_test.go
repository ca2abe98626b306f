package ftl

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oocnvm/internal/nvm"
)

var update = flag.Bool("update", false, "rewrite the media image golden file")

// imageWorkload drives a preloaded durable FTL through every kind of state
// its checkpoints record: overwrites of preloaded identity slots (dead
// slots), trims (versions of unmapped pages), enough rewrites for GC
// (erases and wear) and one retirement of a preloaded superblock (a bad
// superblock and relocated identity data). Every emitted op commits to the
// media through applyOps, torn at the tearAt-th program or erase (0 =
// never). It returns the FTL, the boundary count and whether the tear
// fired.
func imageWorkload(t *testing.T, tearAt int) (*FTL, int, bool) {
	t.Helper()
	f := newDurable(t, nvm.SLC, 64)
	ps := f.PageSize()
	if err := f.Preload(2 * f.spb * ps); err != nil {
		t.Fatal(err)
	}
	span := 3 * f.spb
	count := 0
	for i := int64(0); i < 3000; i++ {
		lpn := (i * 37) % span
		var ops []nvm.PageOp
		switch {
		case i == 700:
			ops = f.RetireBlock(f.spb + 5).Ops
		case i == 2999:
			// A wide trim last, so the chain ends in a journal page.
			ops = f.Erase(0, 256*ps)
		case i%9 == 4:
			ops = f.Erase(lpn*ps, 3*ps)
		default:
			ops = f.Write(lpn*ps, (1+i%2)*ps)
		}
		var torn bool
		count, torn = applyOps(f.Media(), ops, count, tearAt)
		if torn {
			return f, count, true
		}
	}
	return f, count, false
}

// hashImage hashes the durable media image: every metadata page in
// sequence order with all its records, then every data page's OOB tag or
// torn mark in PPN order, then the torn metadata sequences.
func hashImage(m *Media) string {
	h := sha256.New()
	for seq := int64(0); seq < m.nextSeq; seq++ {
		if m.tornMeta[seq] {
			fmt.Fprintf(h, "tornmeta %d\n", seq)
		}
		pg, ok := m.meta[seq]
		if !ok {
			continue
		}
		fmt.Fprintf(h, "meta %d kind=%d ckpt=%d last=%v corrupt=%v recs=%d\n",
			pg.Seq, pg.Kind, pg.Ckpt, pg.Last, pg.Corrupt, len(pg.Recs))
		for _, r := range pg.Recs {
			fmt.Fprintf(h, "%d %d %d %d\n", r.Kind, r.A, r.B, r.V)
		}
	}
	for ppn := int64(0); ppn < m.pages; ppn++ {
		oob, programmed, torn := m.PageState(ppn)
		switch {
		case torn:
			fmt.Fprintf(h, "torn %d\n", ppn)
		case programmed:
			fmt.Fprintf(h, "data %d %d %d\n", ppn, oob.LPN, oob.Ver)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hashMount recovers the image and hashes the mounted state, the report
// and the error.
func hashMount(t *testing.T, m *Media) (string, *FTL, RecoveryReport) {
	t.Helper()
	rf, rep, err := Recover(smallGeo(), nvm.Params(nvm.SLC), Config{}, m)
	if rf == nil {
		t.Fatalf("recover: %v", err)
	}
	h := sha256.New()
	io.WriteString(h, rf.DumpState())
	fmt.Fprintf(h, "%+v\n%v\n", rep, err)
	return fmt.Sprintf("%x", h.Sum(nil)), rf, rep
}

// TestMediaImageGolden pins the durable media image byte for byte: the
// checkpoint and journal records in their on-media order, every data
// page's OOB tag and torn mark, and what three mounts of it recover — a
// clean image, one torn mid-stream, and a salvage after a corrupt journal
// page. No other test compares the image across builds, and the bench
// digests hash only the simulated results, which checkpoint record order
// cannot move. Regenerate with `go test ./internal/ftl -run
// MediaImageGolden -update` only for an intended change of the image.
func TestMediaImageGolden(t *testing.T) {
	f, total, torn := imageWorkload(t, 0)
	if torn {
		t.Fatal("untorn workload reported a tear")
	}
	st := f.Stats()
	if st.GCRuns == 0 || st.GrownBadSuper != 1 || st.CkptRuns < 3 {
		t.Fatalf("workload misses a state: %+v", st)
	}
	var out strings.Builder
	fmt.Fprintf(&out, "image %s\n", hashImage(f.Media()))
	clean, rf, _ := hashMount(t, f.Media())
	checkInvariants(t, rf)
	fmt.Fprintf(&out, "clean %s\n", clean)

	tf, _, torn := imageWorkload(t, total/2)
	if !torn {
		t.Fatal("tear point never reached")
	}
	fmt.Fprintf(&out, "torn-image %s\n", hashImage(tf.Media()))
	tornMount, rf, _ := hashMount(t, tf.Media())
	checkInvariants(t, rf)
	fmt.Fprintf(&out, "torn %s\n", tornMount)

	m := f.Media()
	if !m.CorruptMeta(m.MetaPages() - 1) {
		t.Fatal("no metadata page to corrupt")
	}
	// The salvage mount is hashed but not invariant-checked: its OOB scan
	// maps lpn 775, trimmed after superblock 1 was retired, back onto the
	// stale identity copy the retirement left in that grown-bad superblock.
	salvage, _, rep := hashMount(t, m)
	if !rep.ReadOnly {
		t.Fatal("a corrupt last journal page did not salvage")
	}
	fmt.Fprintf(&out, "salvage %s\n", salvage)

	golden := filepath.Join("testdata", "media_image.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if out.String() != string(want) {
		t.Fatalf("media image moved:\n got:\n%s\nwant:\n%s", out.String(), want)
	}
}
