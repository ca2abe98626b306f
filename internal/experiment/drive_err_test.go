package experiment

import (
	"errors"
	"testing"

	"oocnvm/internal/nvm"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

// TestReplayFailsFaultFreeDriveErrors replays a fault-free cell whose trace
// holds one op past the device's capacity: the cell must fail with the
// drive's typed error instead of reporting a bandwidth.
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
	if _, err := replay(cfg, nvm.TLC, opt, ops[:1], 0, cfg.buildLink(), nil, true); err != nil {
		t.Fatalf("in-range trace: %v", err)
	}
	_, err = replay(cfg, nvm.TLC, opt, ops, 0, cfg.buildLink(), nil, true)
	if !errors.Is(err, ssd.ErrOutOfRange) {
		t.Fatalf("out-of-range op: err = %v, want ssd.ErrOutOfRange", err)
	}
}
