// Package fs models how file systems mutate an application's POSIX request
// stream on its way to the block device. The paper (§3.2) attributes the
// performance spread between file systems to exactly two mechanisms, both
// modeled here:
//
//  1. requests are divided into small blocks and only coalesced back up to an
//     artificial limit before reaching the device, destroying the die-level
//     parallelism large sequential requests would unlock; and
//  2. metadata and journalling accesses land in the middle of the data
//     stream, serializing it and contending for the same NVM resources.
//
// GPFS additionally stripes — "divides up what was previously largely
// sequential" (§4.2, Figure 6) — and UFS removes the file system's
// transformations entirely, passing application requests through at raw
// device addresses.
package fs

import (
	"fmt"

	"oocnvm/internal/obs"
	"oocnvm/internal/sim"
	"oocnvm/internal/trace"
)

// FileSystem converts a POSIX-level trace into the block-level trace that
// reaches the SSD.
type FileSystem interface {
	Name() string
	Transform(ops []trace.PosixOp) []trace.BlockOp
	// ReadAhead is the in-flight byte window the kernel keeps for a
	// synchronous reader under this file system: the effective depth of the
	// device pipeline, and the knob ext4-L turns up.
	ReadAhead() int64
	// SetProbe attaches an observability probe; nil detaches.
	SetProbe(p *obs.Collector)
}

// Profile parameterizes a conventional file system's behaviour.
type Profile struct {
	Name string

	// BlockSize is the allocation granularity; requests are aligned to it.
	BlockSize int64
	// MaxRequest caps how large a coalesced request handed to the block
	// device may grow ("artificial limits ... on how large the size of the
	// coalesced request can be").
	MaxRequest int64
	// ScatterProb is the probability that a chunk is relocated to a random
	// aligned device address: allocator fragmentation and non-extent
	// (indirect-block) layouts break physical contiguity.
	ScatterProb float64
	// MetaBytes injects one synchronous 4 KiB metadata read per this many
	// bytes of data (indirect/extent-tree lookups, inode updates). Zero
	// disables metadata traffic.
	MetaBytes int64
	// JournalBytes injects one synchronous journal write per this many bytes
	// of data. Zero disables journalling.
	JournalBytes int64
	// JournalWriteSize is the size of each journal commit record.
	JournalWriteSize int64
	// ReadAheadBytes bounds in-flight data for a synchronous reader (the
	// kernel readahead window). Zero selects DefaultReadAhead.
	ReadAheadBytes int64
}

// DefaultReadAhead is the stock kernel readahead window.
const DefaultReadAhead = 256 * KiB

// Validate reports nonsensical profiles.
func (p Profile) Validate() error {
	if p.BlockSize <= 0 || p.MaxRequest <= 0 {
		return fmt.Errorf("fs: %s: BlockSize and MaxRequest must be positive", p.Name)
	}
	if p.MaxRequest < p.BlockSize {
		return fmt.Errorf("fs: %s: MaxRequest %d below BlockSize %d", p.Name, p.MaxRequest, p.BlockSize)
	}
	if p.ScatterProb < 0 || p.ScatterProb > 1 {
		return fmt.Errorf("fs: %s: ScatterProb %v out of [0,1]", p.Name, p.ScatterProb)
	}
	return nil
}

// profileFS is the engine executing a Profile against a device address space.
type profileFS struct {
	p        Profile
	capacity int64
	rng      *sim.RNG
	journal  int64 // next journal-region write position

	probe *obs.Collector
	seq   int64 // synthetic translate-span timeline position
}

// SetProbe attaches an observability probe. Translation happens ahead of
// simulated time, so translate spans are placed on a synthetic timeline (one
// microsecond per POSIX request) that shows the fan-out, not timing.
func (f *profileFS) SetProbe(p *obs.Collector) { f.probe = p }

// New builds a file system from a behavioural profile. capacity is the size
// of the device's address space (used for scatter relocation targets); seed
// fixes the allocator's random stream.
func New(p Profile, capacity int64, seed uint64) (FileSystem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("fs: %s: capacity must be positive", p.Name)
	}
	return &profileFS{p: p, capacity: capacity, rng: sim.NewRNG(seed)}, nil
}

func (f *profileFS) Name() string { return f.p.Name }

// ReadAhead reports the profile's in-flight byte window.
func (f *profileFS) ReadAhead() int64 {
	if f.p.ReadAheadBytes > 0 {
		return f.p.ReadAheadBytes
	}
	return DefaultReadAhead
}

// journalRegion reserves the tail 1/64th of the device for the journal.
func (f *profileFS) journalBase() int64 {
	return f.capacity - f.capacity/64
}

// maxOps bounds how many block ops Transform emits for ops, so the output
// is allocated once instead of regrown (and copied) as it fills.
func (f *profileFS) maxOps(ops []trace.PosixOp) int {
	var chunks, bytes int64
	for _, op := range ops {
		start := op.Offset - op.Offset%f.p.BlockSize
		end := op.Offset + op.Size
		if rem := end % f.p.BlockSize; rem != 0 {
			end += f.p.BlockSize - rem
		}
		if end > start {
			chunks += (end - start + f.p.MaxRequest - 1) / f.p.MaxRequest
			bytes += end - start
		}
	}
	// At most one metadata read and one journal write follow each chunk,
	// and each consumes its interval's worth of data bytes.
	n := chunks
	if f.p.MetaBytes > 0 {
		n += min(chunks, bytes/f.p.MetaBytes)
	}
	if f.p.JournalBytes > 0 {
		n += min(chunks, bytes/f.p.JournalBytes)
	}
	return int(n)
}

func (f *profileFS) Transform(ops []trace.PosixOp) []trace.BlockOp {
	out := make([]trace.BlockOp, 0, f.maxOps(ops))
	var sinceMeta, sinceJournal int64
	for _, op := range ops {
		outBefore := len(out)
		// Align the request to FS blocks, then cut it at the coalescing cap.
		start := op.Offset - op.Offset%f.p.BlockSize
		end := op.Offset + op.Size
		if rem := end % f.p.BlockSize; rem != 0 {
			end += f.p.BlockSize - rem
		}
		for cur := start; cur < end; {
			n := f.p.MaxRequest
			if cur+n > end {
				n = end - cur
			}
			off := cur % f.capacity
			if f.rng.Bool(f.p.ScatterProb) {
				// Relocate to a random block-aligned address outside the
				// journal region.
				blocks := f.journalBase() / f.p.BlockSize
				off = f.rng.Int63n(blocks) * f.p.BlockSize
			}
			if off+n > f.capacity {
				off = 0
			}
			out = append(out, trace.BlockOp{Kind: op.Kind, Offset: off, Size: n})
			cur += n

			sinceMeta += n
			sinceJournal += n
			if f.p.MetaBytes > 0 && sinceMeta >= f.p.MetaBytes {
				sinceMeta -= f.p.MetaBytes
				blocks := f.journalBase() / 4096
				out = append(out, trace.BlockOp{
					Kind: trace.Read, Offset: f.rng.Int63n(blocks) * 4096,
					Size: 4096, Sync: true, Meta: true,
				})
				f.probe.Count("fs.meta_ops", 1)
			}
			if f.p.JournalBytes > 0 && sinceJournal >= f.p.JournalBytes {
				sinceJournal -= f.p.JournalBytes
				size := f.p.JournalWriteSize
				if size <= 0 {
					size = 4096
				}
				pos := f.journalBase() + f.journal%(f.capacity/64-size)
				f.journal += size
				// Journal commits are asynchronous (the kernel's commit
				// thread); they contend for the NVM but do not barrier the
				// data stream the way metadata lookups do.
				out = append(out, trace.BlockOp{
					Kind: trace.Write, Offset: pos, Size: size, Meta: true,
				})
				f.probe.Count("fs.journal_ops", 1)
			}
		}
		f.probe.Count("fs.posix_ops", 1)
		f.probe.Count("fs.block_ops", int64(len(out)-outBefore))
		if f.probe.Enabled() {
			t := sim.Time(f.seq) * sim.Microsecond
			f.probe.Span(obs.LayerFS, f.p.Name, "translate", t, t+sim.Microsecond,
				obs.Attr{Key: "in_bytes", Value: op.Size},
				obs.Attr{Key: "out_ops", Value: int64(len(out) - outBefore)})
		}
		f.seq++
	}
	return out
}
