// Package ufs implements the paper's Unified File System (§3.2): a
// host-level layer that replaces both the conventional file system and the
// SSD's flash translation layer. UFS exposes the NVM as raw device addresses
// under application management — no blocks, no journal, no metadata in the
// data path — so the size and sequentiality of application requests survive
// all the way to the NVM transaction level, letting the SSD parallelize
// large requests over all channels, packages and dies.
//
// Because UFS subsumes the FTL, host-side responsibilities include space
// allocation, erase-before-write bookkeeping and wear tracking; this package
// provides all three.
package ufs

import (
	"fmt"

	"oocnvm/internal/obs"
	"oocnvm/internal/sim"
	"oocnvm/internal/trace"
)

// MaxRequest caps a single NVM-bound request; it exists only to bound memory
// per transaction, far above any block-layer coalescing limit.
const MaxRequest = 16 * 1024 * 1024

// Extent is a named, contiguous region of raw device address space. The
// DOoC-style semantics of the paper apply: large arrays are immutable once
// written, so extents carry a sealed flag instead of coherency machinery.
type Extent struct {
	Name   string
	Offset int64
	Size   int64
	Sealed bool
}

// End returns the first byte past the extent.
func (e Extent) End() int64 { return e.Offset + e.Size }

// UFS manages one device's raw address space.
type UFS struct {
	capacity  int64
	blockSize int64 // eraseblock size, for erase accounting
	next      int64
	extents   map[string]*Extent
	erased    map[int64]bool  // eraseblock index -> clean
	wear      map[int64]int64 // eraseblock index -> erase count
}

// New creates a UFS over a device of the given capacity and eraseblock size.
// All blocks start clean (factory state).
func New(capacity, blockSize int64) (*UFS, error) {
	if capacity <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("ufs: capacity and blockSize must be positive")
	}
	if capacity%blockSize != 0 {
		return nil, fmt.Errorf("ufs: capacity %d not a multiple of eraseblock %d", capacity, blockSize)
	}
	u := &UFS{
		capacity:  capacity,
		blockSize: blockSize,
		extents:   make(map[string]*Extent),
		erased:    make(map[int64]bool),
		wear:      make(map[int64]int64),
	}
	for b := int64(0); b < capacity/blockSize; b++ {
		u.erased[b] = true
	}
	return u, nil
}

// Capacity reports the managed space in bytes.
func (u *UFS) Capacity() int64 { return u.capacity }

// Free reports unallocated bytes.
func (u *UFS) Free() int64 { return u.capacity - u.next }

// Alloc reserves a contiguous extent, aligned up to the eraseblock size so
// the application can erase/rewrite it independently of its neighbours.
func (u *UFS) Alloc(name string, size int64) (Extent, error) {
	if size <= 0 {
		return Extent{}, fmt.Errorf("ufs: alloc %q: size must be positive", name)
	}
	if _, dup := u.extents[name]; dup {
		return Extent{}, fmt.Errorf("ufs: alloc %q: name already allocated", name)
	}
	aligned := size
	if rem := aligned % u.blockSize; rem != 0 {
		aligned += u.blockSize - rem
	}
	if u.next+aligned > u.capacity {
		return Extent{}, fmt.Errorf("ufs: alloc %q: need %d bytes, only %d free", name, aligned, u.Free())
	}
	e := &Extent{Name: name, Offset: u.next, Size: aligned}
	u.next += aligned
	u.extents[name] = e
	return *e, nil
}

// Lookup returns the named extent.
func (u *UFS) Lookup(name string) (Extent, bool) {
	e, ok := u.extents[name]
	if !ok {
		return Extent{}, false
	}
	return *e, true
}

// Seal marks an extent immutable (the DOoC "large disk-located arrays are
// immutable once written" semantics).
func (u *UFS) Seal(name string) error {
	e, ok := u.extents[name]
	if !ok {
		return fmt.Errorf("ufs: seal %q: no such extent", name)
	}
	e.Sealed = true
	return nil
}

// Read emits the block operations for reading [off, off+size) of an extent.
// The request is passed through at full size (chunked only at MaxRequest),
// preserving the application's sequentiality.
func (u *UFS) Read(name string, off, size int64) ([]trace.BlockOp, error) {
	e, ok := u.extents[name]
	if !ok {
		return nil, fmt.Errorf("ufs: read %q: no such extent", name)
	}
	if off < 0 || size < 0 || off+size > e.Size {
		return nil, fmt.Errorf("ufs: read %q: range [%d,%d) outside extent of %d bytes", name, off, off+size, e.Size)
	}
	return chunk(trace.Read, e.Offset+off, size), nil
}

// Write emits the block operations for writing [off, off+size) of an extent,
// enforcing erase-before-write: every touched eraseblock must be clean, and
// the write dirties it. Writing a sealed extent is an error.
func (u *UFS) Write(name string, off, size int64) ([]trace.BlockOp, error) {
	e, ok := u.extents[name]
	if !ok {
		return nil, fmt.Errorf("ufs: write %q: no such extent", name)
	}
	if e.Sealed {
		return nil, fmt.Errorf("ufs: write %q: extent is sealed", name)
	}
	if off < 0 || size < 0 || off+size > e.Size {
		return nil, fmt.Errorf("ufs: write %q: range [%d,%d) outside extent of %d bytes", name, off, off+size, e.Size)
	}
	first := (e.Offset + off) / u.blockSize
	last := (e.Offset + off + size - 1) / u.blockSize
	for b := first; b <= last; b++ {
		if !u.erased[b] {
			return nil, fmt.Errorf("ufs: write %q: eraseblock %d not erased (erase-before-write)", name, b)
		}
	}
	for b := first; b <= last; b++ {
		u.erased[b] = false
	}
	return chunk(trace.Write, e.Offset+off, size), nil
}

// Erase emits the erase for an extent's whole range and marks its blocks
// clean again, bumping wear counters. Sealed extents must be unsealed by
// the owner first (erasing is the only mutation of a sealed array's space).
func (u *UFS) Erase(name string) ([]trace.BlockOp, error) {
	e, ok := u.extents[name]
	if !ok {
		return nil, fmt.Errorf("ufs: erase %q: no such extent", name)
	}
	e.Sealed = false
	first := e.Offset / u.blockSize
	last := (e.End() - 1) / u.blockSize
	var ops []trace.BlockOp
	for b := first; b <= last; b++ {
		u.erased[b] = true
		u.wear[b]++
		ops = append(ops, trace.BlockOp{Kind: trace.Erase, Offset: b * u.blockSize, Size: u.blockSize, Meta: true})
	}
	return ops, nil
}

// Wear returns the erase count of the eraseblock containing the byte offset.
func (u *UFS) Wear(offset int64) int64 { return u.wear[offset/u.blockSize] }

// MaxWear returns the highest erase count across all blocks.
func (u *UFS) MaxWear() int64 {
	var m int64
	for _, w := range u.wear {
		if w > m {
			m = w
		}
	}
	return m
}

func chunk(kind trace.Kind, off, size int64) []trace.BlockOp {
	var ops []trace.BlockOp
	for cur := off; cur < off+size; {
		n := int64(MaxRequest)
		if cur+n > off+size {
			n = off + size - cur
		}
		ops = append(ops, trace.BlockOp{Kind: kind, Offset: cur, Size: n})
		cur += n
	}
	return ops
}

// AsFileSystem adapts UFS to the fs.FileSystem contract for the comparison
// harness: POSIX offsets are treated as raw device addresses and passed
// through unchanged except for MaxRequest chunking. Use a pointer so an
// attached probe survives across Transform calls.
type AsFileSystem struct {
	probe *obs.Collector
	seq   int64 // synthetic translate-span timeline position
}

// SetProbe attaches an observability probe. Like the fs package's
// translators, translate spans land on a synthetic one-request-per-
// microsecond timeline showing fan-out, not timing.
func (a *AsFileSystem) SetProbe(p *obs.Collector) { a.probe = p }

// Name returns "UFS".
func (*AsFileSystem) Name() string { return "UFS" }

// ReadAhead reports the application-managed in-flight window: UFS clients
// issue asynchronous raw-address requests, so the pipeline is bounded by
// queue entries, not by a kernel readahead heuristic.
func (*AsFileSystem) ReadAhead() int64 { return 256 * 1024 * 1024 }

// Transform passes the stream through, preserving size and sequentiality.
func (a *AsFileSystem) Transform(ops []trace.PosixOp) []trace.BlockOp {
	var out []trace.BlockOp
	for _, op := range ops {
		outBefore := len(out)
		out = append(out, chunk(op.Kind, op.Offset, op.Size)...)
		a.probe.Count("ufs.posix_ops", 1)
		a.probe.Count("ufs.block_ops", int64(len(out)-outBefore))
		var attrs []obs.Attr
		if a.probe.KeepsSpans() {
			attrs = []obs.Attr{
				{Key: "in_bytes", Value: op.Size},
				{Key: "out_ops", Value: int64(len(out) - outBefore)}}
		}
		t := sim.Time(a.seq) * sim.Microsecond
		a.probe.Span(obs.LayerUFS, "passthrough", "translate", t, t+sim.Microsecond, attrs...)
		a.seq++
	}
	return out
}
