package check

import (
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/pool"
	"oocnvm/internal/ssd"
)

// Checked wraps an ssd.Translator with the shadow oracle, giving every host
// request end-to-end data-integrity verification. It attaches the oracle as
// the inner translator's mapping tap (so placements made below the host
// interface — GC, retirement, remap — are mirrored), bumps the per-LBA
// version on host writes, and re-verifies the page operations the
// translator returns for a read against the oracle's reference mapping.
// That last step is what makes the check end-to-end: even a translator that
// lies consistently to its own tap cannot serve a host read from the wrong
// physical page without the wrapper noticing.
type Checked struct {
	inner ssd.Translator
	o     *Oracle

	// FlipOffset is a test-only hook that corrupts the offset handed to the
	// inner translator on reads, simulating a translation defect (e.g. a
	// flipped LBA bit). The wrapper still verifies against the original
	// offset, so a non-identity hook must be caught by the oracle. Nil means
	// identity.
	FlipOffset func(offset int64) int64
}

// Wrap builds a Checked translator around inner, creating and attaching a
// fresh oracle seeded with seed.
func Wrap(inner ssd.Translator, seed uint64) *Checked {
	c := &Checked{inner: inner, o: NewOracle(seed)}
	if t, ok := inner.(interface{ SetMappingTap(nvm.MappingTap) }); ok {
		t.SetMappingTap(c.o)
	}
	return c
}

// Oracle exposes the attached shadow oracle (for violation collection).
func (c *Checked) Oracle() *Oracle { return c.o }

// Write implements ssd.Translator: it records the host write in the oracle
// (bumping each covered page's version) and delegates placement.
func (c *Checked) Write(offset, size int64) []nvm.PageOp {
	if size > 0 {
		ps := c.inner.PageSize()
		first, last := offset/ps, (offset+size-1)/ps
		for lpn := first; lpn <= last; lpn++ {
			c.o.BumpVersion(lpn)
		}
	}
	return c.inner.Write(offset, size)
}

// Read implements ssd.Translator: it delegates (through the FlipOffset hook
// when set) and then verifies that each returned page read serves the
// requested logical pages from the physical pages the oracle knows hold
// their current content.
func (c *Checked) Read(offset, size int64) []nvm.PageOp {
	req := offset
	if c.FlipOffset != nil {
		req = c.FlipOffset(offset)
	}
	ops := c.inner.Read(req, size)
	c.verifyRead(offset, size, ops)
	return ops
}

// verifyRead checks the translator's answer to a host read against the
// oracle. Both translators in the tree (FTL and Direct) return exactly one
// OpRead per requested page, in ascending logical order; anything else is a
// shape violation.
func (c *Checked) verifyRead(offset, size int64, ops []nvm.PageOp) {
	if size <= 0 {
		return
	}
	ps := c.inner.PageSize()
	first, last := offset/ps, (offset+size-1)/ps
	want := int(last - first + 1)
	if len(ops) != want {
		c.o.report("host read offset=%d size=%d returned %d page ops, want %d", offset, size, len(ops), want)
		return
	}
	for i, op := range ops {
		if op.Op != nvm.OpRead {
			c.o.report("host read offset=%d size=%d returned %s op at index %d", offset, size, op.Op, i)
			return
		}
		c.o.verify(first+int64(i), op.PPN, "host")
	}
}

// Erase implements ssd.Translator. Invalidation bookkeeping arrives through
// the inner translator's MapTrim tap calls.
func (c *Checked) Erase(offset, size int64) []nvm.PageOp {
	return c.inner.Erase(offset, size)
}

// PageSize implements ssd.Translator.
func (c *Checked) PageSize() int64 { return c.inner.PageSize() }

// CapacityBytes implements ssd.Translator.
func (c *Checked) CapacityBytes() int64 { return c.inner.CapacityBytes() }

// RetireBlock forwards grown-bad-block retirement when the inner translator
// supports it; otherwise it reports OK=false, which is exactly what the
// drive's recovery path does for a translator with no retirement support.
func (c *Checked) RetireBlock(ppn int64) nvm.Retirement {
	if br, ok := c.inner.(ssd.BlockRetirer); ok {
		return br.RetireBlock(ppn)
	}
	return nvm.Retirement{}
}

// MediaTap forwards the inner translator's durable-media tap (nil when the
// inner translator does not model durable metadata), so a checked stack
// mirrors programs and erases into the media model exactly like an
// unchecked one.
func (c *Checked) MediaTap() nvm.MediaTap {
	if mt, ok := c.inner.(interface{ MediaTap() nvm.MediaTap }); ok {
		return mt.MediaTap()
	}
	return nil
}

// Err forwards the inner translator's out-of-room error (the FTL's
// ftl.ErrNoFreeSuperblock), so a checked drive degrades to read-only
// exactly when an unchecked one does.
func (c *Checked) Err() error {
	if e, ok := c.inner.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// SetOpPool forwards the drive's page-op free list to the inner translator
// when it pools; the wrapper itself never retains translation slices, so a
// checked stack recycles exactly like an unchecked one.
func (c *Checked) SetOpPool(p *pool.Buffers[nvm.PageOp]) {
	if op, ok := c.inner.(interface {
		SetOpPool(*pool.Buffers[nvm.PageOp])
	}); ok {
		op.SetOpPool(p)
	}
}

// ReleaseOps forwards the drive's end-of-request release to the inner
// translator.
func (c *Checked) ReleaseOps(ops []nvm.PageOp) {
	if op, ok := c.inner.(interface{ ReleaseOps([]nvm.PageOp) }); ok {
		op.ReleaseOps(ops)
	}
}

// SetProbe forwards observability wiring to the inner translator, so a
// checked stack reports the same obs counters an unchecked one does.
func (c *Checked) SetProbe(p obs.Probe) { obs.Instrument(c.inner, p) }

// RegisterSeries forwards time-series registration to the inner translator.
func (c *Checked) RegisterSeries(s *timeseries.Sampler) { timeseries.Instrument(c.inner, s) }
