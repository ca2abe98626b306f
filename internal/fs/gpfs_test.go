package fs

import (
	"testing"

	"oocnvm/internal/trace"
)

func TestGPFSConfigValidation(t *testing.T) {
	if _, err := NewGPFS(GPFSConfig{}, testCapacity, 1); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := DefaultGPFS()
	bad.FragmentSize = bad.StripeUnit * 2
	if _, err := NewGPFS(bad, testCapacity, 1); err == nil {
		t.Fatal("fragment larger than stripe accepted")
	}
	if _, err := NewGPFS(DefaultGPFS(), 0, 1); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestGPFSFragmentsRequests(t *testing.T) {
	g, err := NewGPFS(DefaultGPFS(), testCapacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Transform([]trace.PosixOp{posixRead(0, 8<<20)})
	for _, op := range out {
		if op.Meta {
			continue
		}
		if op.Size != DefaultGPFS().FragmentSize {
			t.Fatalf("fragment of %d bytes, want %d", op.Size, DefaultGPFS().FragmentSize)
		}
	}
	// Volume is preserved (other servers' stripes appear as statistically
	// equivalent interleaved traffic).
	if got := trace.Characterize(out).DataBytes; got != 8<<20 {
		t.Fatalf("data volume %d, want %d", got, 8<<20)
	}
}

// TestGPFSDestroysSequentiality is the heart of Figure 6: the largely
// sequential POSIX stream becomes scattered at the device.
func TestGPFSDestroysSequentiality(t *testing.T) {
	g, err := NewGPFS(DefaultGPFS(), testCapacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Transform([]trace.PosixOp{posixRead(0, 64<<20)})
	seq := trace.Characterize(out).SequentialPct
	if seq > 0.25 {
		t.Fatalf("sub-GPFS trace %.0f%% sequential; striping should break the stream", 100*seq)
	}
}

func TestGPFSTokenTraffic(t *testing.T) {
	cfg := DefaultGPFS()
	g, err := NewGPFS(cfg, testCapacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Transform([]trace.PosixOp{posixRead(0, 16<<20)})
	st := trace.Characterize(out)
	want := int(16 << 20 / cfg.TokenBytes)
	if st.MetaOps != want {
		t.Fatalf("token ops = %d, want %d", st.MetaOps, want)
	}
}

func TestGPFSLargerStripesHelpOnlySoMuch(t *testing.T) {
	// §4.2: "larger stripes combat this randomizing trend, but only to
	// limited extents". Bigger stripe units must increase sequentiality,
	// but never restore it fully.
	small := DefaultGPFS()
	small.StripeUnit = 256 << 10
	big := DefaultGPFS()
	big.StripeUnit = 4 << 20
	in := []trace.PosixOp{posixRead(0, 64<<20)}
	gs, _ := NewGPFS(small, testCapacity, 1)
	gb, _ := NewGPFS(big, testCapacity, 1)
	seqSmall := trace.Characterize(gs.Transform(in)).SequentialPct
	seqBig := trace.Characterize(gb.Transform(in)).SequentialPct
	if seqBig <= seqSmall {
		t.Fatalf("bigger stripes did not help: %.2f vs %.2f", seqBig, seqSmall)
	}
	if seqBig > 0.5 {
		t.Fatalf("bigger stripes restored %.0f%% sequentiality; should be limited", 100*seqBig)
	}
}

func TestGPFSDeterministic(t *testing.T) {
	in := []trace.PosixOp{posixRead(0, 16<<20)}
	a, _ := NewGPFS(DefaultGPFS(), testCapacity, 9)
	b, _ := NewGPFS(DefaultGPFS(), testCapacity, 9)
	oa, ob := a.Transform(in), b.Transform(in)
	if len(oa) != len(ob) {
		t.Fatal("lengths differ")
	}
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("op %d differs", i)
		}
	}
}

func TestGPFSInBounds(t *testing.T) {
	g, _ := NewGPFS(DefaultGPFS(), testCapacity, 1)
	out := g.Transform([]trace.PosixOp{posixRead(testCapacity/2, 32<<20)})
	for _, op := range out {
		if op.Offset < 0 || op.Offset+op.Size > testCapacity {
			t.Fatalf("fragment [%d, %d) outside device", op.Offset, op.Offset+op.Size)
		}
	}
}

func TestGPFSReadAhead(t *testing.T) {
	g, _ := NewGPFS(DefaultGPFS(), testCapacity, 1)
	if g.ReadAhead() != DefaultGPFS().ReadAheadBytes {
		t.Fatal("readahead not wired")
	}
	cfg := DefaultGPFS()
	cfg.ReadAheadBytes = 0
	g, _ = NewGPFS(cfg, testCapacity, 1)
	if g.ReadAhead() != DefaultReadAhead {
		t.Fatal("zero readahead did not default")
	}
}

func TestGPFSName(t *testing.T) {
	g, _ := NewGPFS(DefaultGPFS(), testCapacity, 1)
	if g.Name() != "GPFS" {
		t.Fatal("name wrong")
	}
}
