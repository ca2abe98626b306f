package ufs

import (
	"testing"
	"testing/quick"

	"oocnvm/internal/trace"
)

const (
	testBlock    = 128 << 10
	testCapacity = 1024 * testBlock
)

func newUFS(t *testing.T) *UFS {
	t.Helper()
	u, err := New(testCapacity, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, testBlock); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := New(testCapacity, 0); err == nil {
		t.Fatal("zero block accepted")
	}
	if _, err := New(testBlock+1, testBlock); err == nil {
		t.Fatal("misaligned capacity accepted")
	}
}

func TestAllocAlignsToEraseblocks(t *testing.T) {
	u := newUFS(t)
	e, err := u.Alloc("a", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size != testBlock {
		t.Fatalf("extent size %d, want one eraseblock %d", e.Size, testBlock)
	}
	if e.Offset%testBlock != 0 {
		t.Fatalf("extent offset %d not block aligned", e.Offset)
	}
	e2, err := u.Alloc("b", testBlock+1)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Size != 2*testBlock {
		t.Fatalf("second extent size %d, want 2 blocks", e2.Size)
	}
	if e2.Offset != e.End() {
		t.Fatalf("extents not adjacent: %d after %d", e2.Offset, e.End())
	}
}

func TestAllocErrors(t *testing.T) {
	u := newUFS(t)
	if _, err := u.Alloc("a", 0); err == nil {
		t.Fatal("zero-size alloc accepted")
	}
	if _, err := u.Alloc("a", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Alloc("a", 100); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := u.Alloc("too-big", testCapacity); err == nil {
		t.Fatal("over-capacity alloc accepted")
	}
}

func TestLookupAndExtents(t *testing.T) {
	u := newUFS(t)
	u.Alloc("x", 100)
	u.Alloc("y", 100)
	x, okx := u.Lookup("x")
	y, oky := u.Lookup("y")
	if !okx || !oky || x.Name != "x" || y.Name != "y" {
		t.Fatalf("lookup failed: %v %v", x, y)
	}
	if x.Offset+x.Size > y.Offset {
		t.Fatalf("extents overlap: %v %v", x, y)
	}
	if _, ok := u.Lookup("z"); ok {
		t.Fatal("phantom extent")
	}
}

func TestReadPassesThroughFullSize(t *testing.T) {
	u := newUFS(t)
	u.Alloc("h", 8<<20)
	ops, err := u.Read("h", 0, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 {
		t.Fatalf("8 MiB read split into %d ops; UFS must preserve request size", len(ops))
	}
	if ops[0].Size != 8<<20 || ops[0].Kind != trace.Read {
		t.Fatalf("op = %+v", ops[0])
	}
}

func TestReadChunksAtMaxRequest(t *testing.T) {
	u, err := New(64*MaxRequest, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	u.Alloc("big", 2*MaxRequest+5)
	ops, err := u.Read("big", 0, 2*MaxRequest+5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("got %d chunks, want 3", len(ops))
	}
}

func TestReadBoundsChecked(t *testing.T) {
	u := newUFS(t)
	u.Alloc("h", testBlock)
	if _, err := u.Read("h", 0, testBlock+1); err == nil {
		t.Fatal("read past extent accepted")
	}
	if _, err := u.Read("h", -1, 10); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := u.Read("nope", 0, 1); err == nil {
		t.Fatal("read of unknown extent accepted")
	}
}

func TestEraseBeforeWriteEnforced(t *testing.T) {
	u := newUFS(t)
	u.Alloc("h", testBlock)
	if _, err := u.Write("h", 0, testBlock); err != nil {
		t.Fatalf("first write to clean blocks failed: %v", err)
	}
	if _, err := u.Write("h", 0, testBlock); err == nil {
		t.Fatal("overwrite without erase accepted (erase-before-write violated)")
	}
	ops, err := u.Erase("h")
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].Kind != trace.Erase {
		t.Fatalf("erase ops = %v", ops)
	}
	if _, err := u.Write("h", 0, testBlock); err != nil {
		t.Fatalf("write after erase failed: %v", err)
	}
}

func TestSealedExtentRejectsWrites(t *testing.T) {
	u := newUFS(t)
	u.Alloc("h", testBlock)
	u.Write("h", 0, testBlock)
	if err := u.Seal("h"); err != nil {
		t.Fatal(err)
	}
	// DOoC semantics: immutable once written.
	u2, _ := u.Lookup("h")
	if !u2.Sealed {
		t.Fatal("seal not recorded")
	}
	if err := u.Seal("nope"); err == nil {
		t.Fatal("sealing unknown extent accepted")
	}
	// Erase unseals (space reclamation is the one allowed mutation).
	if _, err := u.Erase("h"); err != nil {
		t.Fatal(err)
	}
	if e, _ := u.Lookup("h"); e.Sealed {
		t.Fatal("erase did not unseal")
	}
}

func TestWriteToSealedFails(t *testing.T) {
	u := newUFS(t)
	u.Alloc("h", testBlock)
	u.Seal("h")
	if _, err := u.Write("h", 0, 10); err == nil {
		t.Fatal("write to sealed extent accepted")
	}
}

func TestWearTracking(t *testing.T) {
	u := newUFS(t)
	e, _ := u.Alloc("h", 2*testBlock)
	for i := 0; i < 3; i++ {
		u.Erase("h")
	}
	if got := u.Wear(e.Offset); got != 3 {
		t.Fatalf("wear = %d, want 3", got)
	}
	if got := u.MaxWear(); got != 3 {
		t.Fatalf("max wear = %d, want 3", got)
	}
	// Unallocated blocks have no wear.
	if got := u.Wear(e.End()); got != 0 {
		t.Fatalf("untouched block wear = %d", got)
	}
}

func TestFreeAccounting(t *testing.T) {
	u := newUFS(t)
	if u.Free() != testCapacity {
		t.Fatal("fresh UFS not fully free")
	}
	u.Alloc("a", testBlock)
	if u.Free() != testCapacity-testBlock {
		t.Fatalf("free = %d", u.Free())
	}
	if u.Capacity() != testCapacity {
		t.Fatal("capacity wrong")
	}
}

func TestAsFileSystemPreservesStream(t *testing.T) {
	var f AsFileSystem
	var in []trace.PosixOp
	for i := int64(0); i < 8; i++ {
		in = append(in, trace.PosixOp{Kind: trace.Read, Offset: i * (8 << 20), Size: 8 << 20})
	}
	out := f.Transform(in)
	if len(out) != 8 {
		t.Fatalf("stream mutated: %d ops", len(out))
	}
	st := trace.Characterize(out)
	// 7 of 8 ops continue exactly where the previous ended (the first op has
	// no predecessor); no metadata, no barriers.
	if st.SequentialPct < 7.0/8 || st.MetaOps != 0 || st.SyncOps != 0 {
		t.Fatalf("UFS injected overhead: %+v", st)
	}
	if f.Name() != "UFS" || f.ReadAhead() <= 0 {
		t.Fatal("identity accessors wrong")
	}
}

// Property: allocations never overlap and always stay inside capacity.
func TestAllocDisjointProperty(t *testing.T) {
	fn := func(sizes []uint16) bool {
		u, err := New(testCapacity, testBlock)
		if err != nil {
			return false
		}
		var extents []Extent
		for i, s := range sizes {
			e, err := u.Alloc(string(rune('a'+i%26))+string(rune('0'+i/26)), int64(s)+1)
			if err != nil {
				break // capacity exhausted is fine
			}
			extents = append(extents, e)
		}
		for i, a := range extents {
			if a.Offset < 0 || a.End() > testCapacity {
				return false
			}
			for _, b := range extents[i+1:] {
				if a.Offset < b.End() && b.Offset < a.End() {
					return false // overlap
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
