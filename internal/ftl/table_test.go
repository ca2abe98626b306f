package ftl

import (
	"math/rand"
	"slices"
	"testing"

	"oocnvm/internal/nvm"
)

// tableIndex draws an index that lands on chunk boundaries often, and
// past a 10,000-page drive now and then.
func tableIndex(r *rand.Rand) int64 {
	switch r.Intn(4) {
	case 0:
		c := int64(r.Intn(3))
		return c*chunkLen + []int64{0, 1, chunkLen - 1}[r.Intn(3)]
	case 1:
		return 10_000 + int64(r.Intn(4*chunkLen))
	default:
		return int64(r.Intn(3 * chunkLen))
	}
}

// checkTable drives a table and a map reference through the same random
// sets, deletes and reads, and checks that each yields the map's sorted
// keys with their values, also while its visitor sets or clears the entry
// it is on. val draws a value other than the table's absent one.
func checkTable[V comparable](t *testing.T, absent V, val func(*rand.Rand) V) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	tb := newTable(absent)
	ref := map[int64]V{}
	for round := 0; round < 20; round++ {
		for op := 0; op < 500; op++ {
			i := tableIndex(r)
			switch r.Intn(3) {
			case 0:
				v := val(r)
				tb.set(i, v)
				ref[i] = v
			case 1:
				tb.del(i)
				delete(ref, i)
			}
			want, ok := ref[i]
			if !ok {
				want = absent
			}
			if got := tb.get(i); got != want || tb.has(i) != ok {
				t.Fatalf("entry %d = %v (has %v), want %v (has %v)", i, got, tb.has(i), want, ok)
			}
		}
		keys := make([]int64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		var seen []int64
		next := map[int64]V{}
		tb.each(func(i int64, v V) {
			if want := ref[i]; v != want {
				t.Fatalf("each yields %d = %v, want %v", i, v, want)
			}
			seen = append(seen, i)
			switch r.Intn(3) {
			case 0:
				nv := val(r)
				tb.set(i, nv)
				next[i] = nv
			case 1:
				tb.del(i)
			default:
				next[i] = v
			}
		})
		if !slices.Equal(seen, keys) {
			t.Fatalf("each yields %d keys, want the %d sorted map keys", len(seen), len(keys))
		}
		ref = next
		for i, want := range ref {
			if got := tb.get(i); got != want {
				t.Fatalf("after each, entry %d = %v, want %v", i, got, want)
			}
		}
	}
	if tb.get(-1) != absent || tb.has(-1) {
		t.Fatal("a negative index reads as present")
	}
	tb.reset()
	if tb.dir != nil || tb.has(0) {
		t.Fatal("reset left entries")
	}
}

// TestTableMatchesMap checks the table against a map for every absent
// value the FTL and its media use.
func TestTableMatchesMap(t *testing.T) {
	t.Run("page", func(t *testing.T) {
		checkTable(t, int64(noPage), func(r *rand.Rand) int64 { return r.Int63n(1 << 40) })
	})
	t.Run("version", func(t *testing.T) {
		checkTable(t, uint64(0), func(r *rand.Rand) uint64 { return 1 + uint64(r.Int63()) })
	})
	t.Run("flag", func(t *testing.T) {
		checkTable(t, false, func(*rand.Rand) bool { return true })
	})
	t.Run("oob", func(t *testing.T) {
		checkTable(t, noTag, func(r *rand.Rand) OOB {
			return OOB{LPN: r.Int63n(1 << 30), Ver: uint64(r.Intn(4))}
		})
	})
}

// TestReadOnlyFTLAllocatesNothing pins the read path of the paper-geometry
// figures: a preloaded FTL that is never written looks pages up without
// allocating, and none of its tables ever gets a directory.
func TestReadOnlyFTLAllocatesNothing(t *testing.T) {
	f, err := New(nvm.PaperGeometry(), nvm.Params(nvm.TLC), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Preload(f.CapacityBytes() / 2); err != nil {
		t.Fatal(err)
	}
	ps := f.PageSize()
	dst := make([]nvm.Location, 0, 16)
	off := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		dst = f.Locations(off, 16*ps, dst[:0])
		off += 16 * ps
	})
	if allocs != 0 {
		t.Fatalf("Locations allocates %.1f per call", allocs)
	}
	if f.l2p.dir != nil || f.p2l.dir != nil || f.dead.dir != nil {
		t.Fatal("a read-only FTL grew a table directory")
	}
}

// TestCheckpointAllocatesOnlyItsPages pins that a checkpoint of a warm
// durable FTL allocates one record copy per metadata page it writes and
// nothing else: its record buffer is reused and its walks do not sort.
func TestCheckpointAllocatesOnlyItsPages(t *testing.T) {
	f, _, _ := durableWorkload(t, 0)
	ops := make([]nvm.PageOp, 0, 256)
	// The staged pages are never committed here; clearing them keeps the
	// staging map at a steady size.
	run := func() {
		ops = f.checkpoint(ops[:0])
		clear(f.media.staged)
	}
	run()
	before := f.Stats().CkptPages
	run()
	pages := f.Stats().CkptPages - before
	if pages < 2 {
		t.Fatalf("a checkpoint wrote %d pages; the workload is too small", pages)
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != float64(pages) {
		t.Fatalf("a %d-page checkpoint allocates %.1f times, want %d", pages, allocs, pages)
	}
}
