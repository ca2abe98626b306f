// Package disk models the magnetic storage substrate of the HPC
// architecture (Figures 2 and 3): individual spinning disks with seek and
// rotational mechanics, and the Fibre-Channel-attached RAID sets the IONs
// expose. It is the source medium for preloading the OoC dataset onto
// compute-local NVM and the capacity tier H is preprocessed into (§2.1).
package disk

import (
	"fmt"

	"oocnvm/internal/sim"
)

// Params describes one spindle.
type Params struct {
	Name         string
	SeekAvg      sim.Time // average seek for a discontiguous access
	SeekTrack    sim.Time // track-to-track seek for a near access
	RotationalMs float64  // full-revolution time in milliseconds
	TransferBPS  float64  // sustained media rate
}

// Enterprise15K returns a 15k-RPM enterprise drive of the paper's era.
func Enterprise15K() Params {
	return Params{
		Name:         "15kRPM-SAS",
		SeekAvg:      3500 * sim.Microsecond,
		SeekTrack:    400 * sim.Microsecond,
		RotationalMs: 2.0, // 60/15000*2 ms per half revolution on average
		TransferBPS:  160e6,
	}
}

// Disk is one spindle with head-position state.
type Disk struct {
	p    Params
	tl   sim.Timeline
	head int64 // byte position after the last access
}

// New creates a disk.
func New(p Params) *Disk { return &Disk{p: p, head: -1} }

// Serve books an access of size bytes at offset, starting no earlier than
// at, and returns the completion time. Sequential continuations skip the
// seek and rotational delay.
func (d *Disk) Serve(at sim.Time, offset, size int64) sim.Time {
	var mech sim.Time
	switch {
	case d.head == offset:
		mech = 0
	case d.head >= 0 && abs64(offset-d.head) < 2<<20:
		mech = d.p.SeekTrack
	default:
		mech = d.p.SeekAvg + sim.Time(d.p.RotationalMs/2*float64(sim.Millisecond))
	}
	dur := mech + sim.DurationForBytes(size, d.p.TransferBPS)
	_, end := d.tl.Acquire(at, dur)
	d.head = offset + size
	return end
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// RAID0 stripes over multiple spindles, the external RAID enclosures of the
// ION storage tier.
type RAID0 struct {
	disks  []*Disk
	stripe int64
}

// NewRAID0 builds an array of n identical disks with the given stripe unit.
func NewRAID0(n int, p Params, stripe int64) (*RAID0, error) {
	if n <= 0 {
		return nil, fmt.Errorf("disk: RAID0 needs at least one disk")
	}
	if stripe <= 0 {
		return nil, fmt.Errorf("disk: RAID0 stripe must be positive, got %d", stripe)
	}
	r := &RAID0{stripe: stripe}
	for i := 0; i < n; i++ {
		r.disks = append(r.disks, New(p))
	}
	return r, nil
}

// Serve splits the access into stripe units across the spindles and returns
// the time the last unit completes.
func (r *RAID0) Serve(at sim.Time, offset, size int64) sim.Time {
	end := at
	for cur := offset; cur < offset+size; {
		n := r.stripe - cur%r.stripe
		if cur+n > offset+size {
			n = offset + size - cur
		}
		unit := cur / r.stripe
		d := r.disks[unit%int64(len(r.disks))]
		diskOff := (unit/int64(len(r.disks)))*r.stripe + cur%r.stripe
		if e := d.Serve(at, diskOff, n); e > end {
			end = e
		}
		cur += n
	}
	return end
}
