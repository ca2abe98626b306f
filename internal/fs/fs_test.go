package fs

import (
	"testing"
	"testing/quick"

	"oocnvm/internal/trace"
)

const testCapacity = 1 << 30

func posixRead(off, size int64) trace.PosixOp {
	return trace.PosixOp{Kind: trace.Read, Offset: off, Size: size}
}

func TestProfileValidate(t *testing.T) {
	for _, p := range LocalProfiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := Profile{Name: "X", BlockSize: 0, MaxRequest: 4096}
	if bad.Validate() == nil {
		t.Error("zero block size passed validation")
	}
	bad = Profile{Name: "X", BlockSize: 4096, MaxRequest: 1024}
	if bad.Validate() == nil {
		t.Error("MaxRequest below BlockSize passed validation")
	}
	bad = Profile{Name: "X", BlockSize: 4096, MaxRequest: 4096, ScatterProb: 1.5}
	if bad.Validate() == nil {
		t.Error("ScatterProb > 1 passed validation")
	}
}

func TestNewRejectsBadCapacity(t *testing.T) {
	if _, err := New(Ext2(), 0, 1); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestMustNewPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Profile{}, testCapacity, 1)
}

func TestTransformSplitsAtMaxRequest(t *testing.T) {
	p := Profile{Name: "T", BlockSize: 4096, MaxRequest: 64 << 10}
	f := MustNew(p, testCapacity, 1)
	out := f.Transform([]trace.PosixOp{posixRead(0, 1<<20)})
	if len(out) != 16 {
		t.Fatalf("1 MiB split into %d ops, want 16 x 64 KiB", len(out))
	}
	for _, op := range out {
		if op.Size > p.MaxRequest {
			t.Fatalf("request of %d exceeds coalescing cap %d", op.Size, p.MaxRequest)
		}
	}
}

func TestTransformPreservesDataVolume(t *testing.T) {
	p := Profile{Name: "T", BlockSize: 4096, MaxRequest: 128 << 10}
	f := MustNew(p, testCapacity, 1)
	out := f.Transform([]trace.PosixOp{posixRead(0, 3<<20)})
	if got := trace.Characterize(out).DataBytes; got != 3<<20 {
		t.Fatalf("data bytes %d, want %d", got, 3<<20)
	}
}

func TestTransformAlignsToBlocks(t *testing.T) {
	p := Profile{Name: "T", BlockSize: 4096, MaxRequest: 64 << 10}
	f := MustNew(p, testCapacity, 1)
	// An unaligned request is rounded out to block boundaries.
	out := f.Transform([]trace.PosixOp{posixRead(100, 5000)})
	var bytes int64
	for _, op := range out {
		if op.Offset%4096 != 0 {
			t.Fatalf("unaligned block offset %d", op.Offset)
		}
		bytes += op.Size
	}
	if bytes != 8192 { // [0,4096) + [4096,8192)
		t.Fatalf("aligned volume %d, want 8192", bytes)
	}
}

func TestMetadataInjectionRate(t *testing.T) {
	p := Profile{Name: "T", BlockSize: 4096, MaxRequest: 128 << 10, MetaBytes: 1 << 20}
	f := MustNew(p, testCapacity, 1)
	out := f.Transform([]trace.PosixOp{posixRead(0, 64<<20)})
	st := trace.Characterize(out)
	if st.MetaOps != 64 {
		t.Fatalf("metadata ops = %d, want 64 (one per MiB)", st.MetaOps)
	}
	// Metadata lookups are synchronous barriers (§3.2 drawback 2).
	if st.SyncOps != st.MetaOps {
		t.Fatalf("sync ops = %d, want %d", st.SyncOps, st.MetaOps)
	}
}

func TestJournalInjection(t *testing.T) {
	p := Profile{Name: "T", BlockSize: 4096, MaxRequest: 128 << 10,
		JournalBytes: 4 << 20, JournalWriteSize: 16 << 10}
	f := MustNew(p, testCapacity, 1)
	out := f.Transform([]trace.PosixOp{posixRead(0, 16<<20)})
	writes := 0
	for _, op := range out {
		if op.Kind == trace.Write {
			writes++
			if !op.Meta {
				t.Fatal("journal write not flagged as metadata")
			}
			if op.Sync {
				t.Fatal("journal commits are asynchronous in this model")
			}
			if op.Size != 16<<10 {
				t.Fatalf("journal write size %d", op.Size)
			}
			if op.Offset < testCapacity-testCapacity/64 {
				t.Fatalf("journal write at %d outside the journal region", op.Offset)
			}
		}
	}
	if writes != 4 {
		t.Fatalf("journal writes = %d, want 4", writes)
	}
}

func TestScatterRelocates(t *testing.T) {
	seq := Profile{Name: "T", BlockSize: 4096, MaxRequest: 128 << 10}
	sct := seq
	sct.ScatterProb = 1
	fseq := MustNew(seq, testCapacity, 1)
	fsct := MustNew(sct, testCapacity, 1)
	in := []trace.PosixOp{posixRead(0, 8<<20)}
	seqPct := trace.Characterize(fseq.Transform(in)).SequentialPct
	sctPct := trace.Characterize(fsct.Transform(in)).SequentialPct
	if seqPct < 0.95 {
		t.Fatalf("unscattered stream only %.2f sequential", seqPct)
	}
	if sctPct > 0.1 {
		t.Fatalf("fully scattered stream still %.2f sequential", sctPct)
	}
}

func TestTransformDeterministic(t *testing.T) {
	in := []trace.PosixOp{posixRead(0, 32<<20)}
	a := MustNew(Ext3(), testCapacity, 7).Transform(in)
	b := MustNew(Ext3(), testCapacity, 7).Transform(in)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestProfileOrderingLevers(t *testing.T) {
	// The knobs that make ext4-L faster than ext4 must actually be larger.
	e4, e4l := Ext4(), Ext4Large()
	if e4l.MaxRequest <= e4.MaxRequest {
		t.Error("ext4-L must raise the coalescing cap")
	}
	if e4l.ReadAheadBytes <= e4.ReadAheadBytes {
		t.Error("ext4-L must raise the readahead window")
	}
	// ext2 is the floor: smallest pipeline among the locals.
	for _, p := range LocalProfiles() {
		if p.Name == "EXT2" {
			continue
		}
		if p.ReadAheadBytes < Ext2().ReadAheadBytes {
			t.Errorf("%s readahead below ext2's", p.Name)
		}
	}
}

func TestReadAheadDefaults(t *testing.T) {
	p := Profile{Name: "T", BlockSize: 4096, MaxRequest: 64 << 10}
	f := MustNew(p, testCapacity, 1)
	if f.ReadAhead() != DefaultReadAhead {
		t.Fatalf("default readahead = %d", f.ReadAhead())
	}
	p.ReadAheadBytes = 1 << 20
	f = MustNew(p, testCapacity, 1)
	if f.ReadAhead() != 1<<20 {
		t.Fatalf("explicit readahead = %d", f.ReadAhead())
	}
}

// Property: every emitted operation stays inside the device address space
// and carries positive size.
func TestTransformInBoundsProperty(t *testing.T) {
	f := MustNew(Ext2(), testCapacity, 3)
	fn := func(off uint32, sz uint16) bool {
		size := int64(sz) + 1
		offset := int64(off) % (testCapacity / 2)
		out := f.Transform([]trace.PosixOp{posixRead(offset, size)})
		for _, op := range out {
			if op.Size <= 0 || op.Offset < 0 || op.Offset+op.Size > testCapacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: data volume (metadata excluded) is preserved for block-aligned
// inputs across all local profiles.
func TestTransformVolumeProperty(t *testing.T) {
	fn := func(blocks uint8, which uint8) bool {
		profiles := LocalProfiles()
		p := profiles[int(which)%len(profiles)]
		f := MustNew(p, testCapacity, 5)
		size := (int64(blocks) + 1) * p.BlockSize
		out := f.Transform([]trace.PosixOp{posixRead(0, size)})
		return trace.Characterize(out).DataBytes == size
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// MustNew is New for known-good profiles; it panics on error.
func MustNew(p Profile, capacity int64, seed uint64) FileSystem {
	f, err := New(p, capacity, seed)
	if err != nil {
		panic(err)
	}
	return f
}
