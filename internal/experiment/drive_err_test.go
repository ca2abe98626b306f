package experiment

import (
	"errors"
	"testing"

	"oocnvm/internal/fault"
	"oocnvm/internal/ftl"
	"oocnvm/internal/nvm"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

// TestReplayFailsFaultFreeDriveErrors replays a cell whose trace holds one
// op past the device's capacity. The close-out fails a fault-free drive
// with the drive's typed error instead of reporting a bandwidth, and passes
// a faulted drive, whose errors are part of the answer it reports.
func TestReplayFailsFaultFreeDriveErrors(t *testing.T) {
	cfg, err := FindConfig("CNL-UFS")
	if err != nil {
		t.Fatal(err)
	}
	opt := TestOptions()
	capacity := opt.Geometry.Capacity(nvm.Params(nvm.TLC))
	ops := []trace.BlockOp{
		{Kind: trace.Read, Offset: 0, Size: 1 << 20},
		{Kind: trace.Read, Offset: capacity, Size: 1 << 20},
	}
	replayOn := func(opt Options, ops []trace.BlockOp) (*Drive, ssd.Result, error) {
		t.Helper()
		tr, err := Translator(cfg, nvm.TLC, opt)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Assemble(cfg, nvm.TLC, tr, opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Replay(ops)
		return d, res, err
	}
	if _, _, err := replayOn(opt, ops[:1]); err != nil {
		t.Fatalf("in-range trace: %v", err)
	}
	if _, _, err := replayOn(opt, ops); !errors.Is(err, ssd.ErrOutOfRange) {
		t.Fatalf("out-of-range op: err = %v, want ssd.ErrOutOfRange", err)
	}

	opt.Fault, err = fault.ForName("worn")
	if err != nil {
		t.Fatal(err)
	}
	d, res, err := replayOn(opt, ops)
	if err != nil {
		t.Fatalf("faulted drive failed the close-out: %v", err)
	}
	if d.Fault == nil || !errors.Is(d.Err(), ssd.ErrOutOfRange) || res.DataBytes != 1<<20 {
		t.Fatalf("faulted drive: injector %v, first error %v, %d data bytes; want an injector, ssd.ErrOutOfRange and 1 MiB",
			d.Fault, d.Err(), res.DataBytes)
	}
}

// wornWriteGC replays CNL-EXT4/TLC under the write-gc-durable workload's
// options with the stock worn profile, program and erase failures included,
// on a drive of bpp blocks per plane. It returns the drive, its result and
// every error a request returned.
func wornWriteGC(t testing.TB, seed uint64, bpp int) (*Drive, ssd.Result, []error) {
	cfg, err := FindConfig("CNL-EXT4")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seed = seed
	opt.Workload.Applications = 8
	opt.Workload.PsiBytes = 256 << 20
	opt.Geometry.BlocksPerPlane = bpp
	opt.DurableCheckpointPages = 1024
	if opt.Fault, err = fault.ForName("worn"); err != nil {
		t.Fatal(err)
	}
	ops, window, err := BlockTrace(cfg, nvm.TLC, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Translator(cfg, nvm.TLC, opt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Assemble(cfg, nvm.TLC, tr, opt, window)
	if err != nil {
		t.Fatal(err)
	}
	var errs []error
	for _, op := range ops {
		if _, err := d.Submit(op); err != nil {
			errs = append(errs, err)
		}
	}
	res, err := d.Finish()
	if err != nil {
		t.Fatalf("faulted drive failed the close-out: %v", err)
	}
	return d, res, errs
}

// TestWornWriteGCExhaustsFreePool pins seed 1 of the write-gc-durable
// options under the stock worn profile, whose grown-bad superblocks once
// drained the FTL's free pool mid-collection and panicked. The write that
// finds the pool empty returns the typed error and the drive goes read-only.
func TestWornWriteGCExhaustsFreePool(t *testing.T) {
	_, res, errs := wornWriteGC(t, 1, 6)
	var exhausted bool
	for _, err := range errs {
		exhausted = exhausted || errors.Is(err, ftl.ErrNoFreeSuperblock)
	}
	if !exhausted || !res.Faults.ReadOnly || res.Faults.RejectedOps == 0 {
		t.Fatalf("exhausted %v, read-only %v, %d rejected ops; want the typed error, read-only and rejections",
			exhausted, res.Faults.ReadOnly, res.Faults.RejectedOps)
	}
}

// FuzzWornWriteGC is the standing claim behind that test: under the stock
// worn profile, every seed and drive size ends in a result whose request
// errors are all typed, never in a panic.
func FuzzWornWriteGC(f *testing.F) {
	f.Add(uint64(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, extra uint8) {
		// Six blocks per plane is the smallest drive the dataset fits on.
		_, _, errs := wornWriteGC(t, seed, 6+int(extra%8))
		for _, err := range errs {
			if !errors.Is(err, ftl.ErrNoFreeSuperblock) && !errors.Is(err, fault.ErrReadOnly) && !errors.Is(err, fault.ErrUncorrectable) {
				t.Fatalf("untyped request error: %v", err)
			}
		}
	})
}
