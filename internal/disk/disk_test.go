package disk

import (
	"testing"

	"oocnvm/internal/sim"
)

func TestSequentialSkipsSeek(t *testing.T) {
	d := New(Enterprise15K())
	e1 := d.Serve(0, 0, 1<<20)
	e2 := d.Serve(e1, 1<<20, 1<<20) // continues at the head
	first := e1
	second := e2 - e1
	if second >= first {
		t.Fatalf("sequential continuation (%v) not faster than cold access (%v)", second, first)
	}
}

func TestRandomPaysSeek(t *testing.T) {
	p := Enterprise15K()
	d := New(p)
	e1 := d.Serve(0, 0, 4096)
	e2 := d.Serve(e1, 10<<30, 4096)
	if e2-e1 < p.SeekAvg {
		t.Fatalf("far access served in %v, below average seek %v", e2-e1, p.SeekAvg)
	}
}

func TestNearSeekCheaper(t *testing.T) {
	p := Enterprise15K()
	near := New(p)
	e1 := near.Serve(0, 0, 4096)
	nearEnd := near.Serve(e1, 1<<20, 4096) // within 2 MiB: track-to-track

	far := New(p)
	f1 := far.Serve(0, 0, 4096)
	farEnd := far.Serve(f1, 10<<30, 4096)
	if nearEnd-e1 >= farEnd-f1 {
		t.Fatal("track-to-track seek not cheaper than average seek")
	}
}

func TestDiskSerializes(t *testing.T) {
	d := New(Enterprise15K())
	e1 := d.Serve(0, 0, 1<<20)
	// A request arriving at t=0 for later data still waits for the first.
	e2 := d.Serve(0, 1<<20, 1<<20)
	if e2 <= e1 {
		t.Fatal("disk served two requests concurrently")
	}
	if d.tl.Busy() <= 0 {
		t.Fatal("busy accounting missing")
	}
}

func TestStreamingRateApproachesMediaRate(t *testing.T) {
	p := Enterprise15K()
	d := New(p)
	const total = 256 << 20
	end := d.Serve(0, 0, total)
	rate := sim.Rate(total, end)
	if rate < 0.9*p.TransferBPS || rate > p.TransferBPS {
		t.Fatalf("streaming rate %.0f MB/s vs media %.0f MB/s", rate/1e6, p.TransferBPS/1e6)
	}
}

func TestRAID0Validation(t *testing.T) {
	if _, err := NewRAID0(0, Enterprise15K(), 1<<20); err == nil {
		t.Fatal("zero disks accepted")
	}
	if _, err := NewRAID0(4, Enterprise15K(), 0); err == nil {
		t.Fatal("zero stripe accepted")
	}
}

func TestRAID0ScalesBandwidth(t *testing.T) {
	one, err := NewRAID0(1, Enterprise15K(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := NewRAID0(8, Enterprise15K(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential streaming rate: one large read on a fresh array.
	stream := func(r *RAID0) float64 {
		const total = 1 << 30
		return sim.Rate(total, r.Serve(0, 0, total))
	}
	bw1, bw8 := stream(one), stream(eight)
	if bw8 < 5*bw1 {
		t.Fatalf("8-wide RAID0 = %.0f MB/s, single = %.0f MB/s; want ~8x", bw8/1e6, bw1/1e6)
	}
}

func TestRAID0ServesWholeRange(t *testing.T) {
	r, err := NewRAID0(4, Enterprise15K(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Unaligned range spanning several stripes completes.
	end := r.Serve(0, 123456, 10<<20)
	if end <= 0 {
		t.Fatal("no completion time")
	}
	// A second pass over the same range is sequential per spindle and faster.
	end2 := r.Serve(end, 123456+10<<20, 10<<20)
	if end2-end > end {
		t.Fatalf("second stripe pass slower: %v vs %v", end2-end, end)
	}
}
