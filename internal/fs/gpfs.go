package fs

import (
	"fmt"

	"oocnvm/internal/obs"
	"oocnvm/internal/sim"
	"oocnvm/internal/trace"
)

// GPFSConfig describes the parallel file system's striping behaviour as seen
// by one of the SSDs behind it.
type GPFSConfig struct {
	// StripeUnit is the full GPFS block (stripe unit) size.
	StripeUnit int64
	// FragmentSize is the granularity at which a stripe unit actually reaches
	// one NSD device once client-side sub-blocking and interleaving with
	// other clients' traffic are accounted for. Figure 6's sub-GPFS trace
	// shows the compute node's sequential stream arriving at the ION as
	// scattered fragments of roughly this size.
	FragmentSize int64
	// Servers is the number of NSD servers (ION SSDs) stripes rotate over.
	Servers int
	// TokenBytes injects one synchronous token/metadata round per this many
	// bytes (GPFS distributed lock manager traffic).
	TokenBytes int64
	// ReadAheadBytes is the NSD server's aggregate in-flight window: many
	// clients' streams interleave at the ION, so it is much deeper than a
	// single client's readahead.
	ReadAheadBytes int64
}

// DefaultGPFS returns the Carver-like configuration: 1 MiB stripe units over
// 20 SSDs, fragments of 32 KiB at the device.
func DefaultGPFS() GPFSConfig {
	return GPFSConfig{
		StripeUnit: 1 * MiB, FragmentSize: 32 * KiB, Servers: 20,
		TokenBytes: 4 * MiB, ReadAheadBytes: 16 * MiB,
	}
}

type gpfs struct {
	cfg      GPFSConfig
	capacity int64
	rng      *sim.RNG

	probe *obs.Collector
	seq   int64 // synthetic translate-span timeline position
}

// SetProbe attaches an observability probe; see profileFS.SetProbe for the
// synthetic-timeline semantics of translate spans.
func (g *gpfs) SetProbe(p *obs.Collector) { g.probe = p }

// NewGPFS builds the GPFS model for one backing SSD with the given device
// capacity.
func NewGPFS(cfg GPFSConfig, capacity int64, seed uint64) (FileSystem, error) {
	if cfg.StripeUnit <= 0 || cfg.FragmentSize <= 0 || cfg.Servers <= 0 {
		return nil, fmt.Errorf("fs: gpfs config fields must be positive: %+v", cfg)
	}
	if cfg.FragmentSize > cfg.StripeUnit {
		return nil, fmt.Errorf("fs: gpfs fragment %d larger than stripe unit %d", cfg.FragmentSize, cfg.StripeUnit)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("fs: gpfs capacity must be positive")
	}
	return &gpfs{cfg: cfg, capacity: capacity, rng: sim.NewRNG(seed)}, nil
}

// stripeHash maps a stripe index to a stable pseudo-random value (SplitMix64
// finalizer), standing in for GPFS's block allocation map.
func stripeHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g *gpfs) Name() string { return "GPFS" }

// ReadAhead reports the server-side in-flight window.
func (g *gpfs) ReadAhead() int64 {
	if g.cfg.ReadAheadBytes > 0 {
		return g.cfg.ReadAheadBytes
	}
	return DefaultReadAhead
}

// maxOps bounds how many block ops Transform emits for ops, so the output
// is allocated once instead of regrown (and copied) as it fills.
func (g *gpfs) maxOps(ops []trace.PosixOp) int {
	var frags int64
	for _, op := range ops {
		start := op.Offset - op.Offset%g.cfg.FragmentSize
		if end := op.Offset + op.Size; end > start {
			frags += (end - start + g.cfg.FragmentSize - 1) / g.cfg.FragmentSize
		}
	}
	// At most one token round follows each fragment, and each consumes
	// TokenBytes of fragments.
	n := frags
	if g.cfg.TokenBytes > 0 {
		n += min(frags, frags*g.cfg.FragmentSize/g.cfg.TokenBytes)
	}
	return int(n)
}

// Transform stripes the POSIX stream and emits this SSD's share of the
// fragments. Each stripe unit is relocated to an independent position (GPFS
// places blocks round-robin over NSDs with its own allocation map, so
// consecutive application stripes are not physically adjacent on any single
// device), and the stripe is delivered as FragmentSize pieces interleaved
// with other clients' traffic — i.e., with their device-local adjacency
// broken. This is the "randomizing trend" of §4.2.
func (g *gpfs) Transform(ops []trace.PosixOp) []trace.BlockOp {
	out := make([]trace.BlockOp, 0, g.maxOps(ops))
	var sinceToken int64
	frags := g.capacity / g.cfg.FragmentSize
	for _, op := range ops {
		outBefore := len(out)
		start := op.Offset - op.Offset%g.cfg.FragmentSize
		end := op.Offset + op.Size
		for cur := start; cur < end; cur += g.cfg.FragmentSize {
			stripe := cur / g.cfg.StripeUnit
			if int(stripe%int64(g.cfg.Servers)) != 0 {
				// This fragment's stripe lives on another server; on this
				// device we instead observe a statistically identical
				// fragment from some other client's interleaved stream.
				out = append(out, trace.BlockOp{
					Kind:   op.Kind,
					Offset: g.rng.Int63n(frags) * g.cfg.FragmentSize,
					Size:   g.cfg.FragmentSize,
				})
			} else {
				// Our stripe: fragments of one stripe unit are contiguous on
				// the device, but the stripe itself sits at an allocator-
				// chosen position (GPFS's block allocation map), so the
				// application's long sequential runs arrive as scattered
				// 1 MiB islands of 32 KiB fragments — the Figure 6 pattern.
				units := g.capacity / g.cfg.StripeUnit
				base := int64(stripeHash(uint64(stripe))%uint64(units)) * g.cfg.StripeUnit
				out = append(out, trace.BlockOp{
					Kind:   op.Kind,
					Offset: (base + cur%g.cfg.StripeUnit) % g.capacity,
					Size:   g.cfg.FragmentSize,
				})
			}
			sinceToken += g.cfg.FragmentSize
			if g.cfg.TokenBytes > 0 && sinceToken >= g.cfg.TokenBytes {
				sinceToken -= g.cfg.TokenBytes
				out = append(out, trace.BlockOp{
					Kind: trace.Read, Offset: g.rng.Int63n(frags) * g.cfg.FragmentSize,
					Size: 4096, Sync: true, Meta: true,
				})
				g.probe.Count("fs.token_ops", 1)
			}
		}
		g.probe.Count("fs.posix_ops", 1)
		g.probe.Count("fs.block_ops", int64(len(out)-outBefore))
		var attrs []obs.Attr
		if g.probe.KeepsSpans() {
			attrs = []obs.Attr{
				{Key: "in_bytes", Value: op.Size},
				{Key: "out_ops", Value: int64(len(out) - outBefore)}}
		}
		t := sim.Time(g.seq) * sim.Microsecond
		g.probe.Span(obs.LayerFS, "GPFS", "stripe", t, t+sim.Microsecond, attrs...)
		g.seq++
	}
	return out
}
