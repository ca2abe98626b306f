package check

import (
	"oocnvm/internal/nvm"
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
// physical page without the wrapper noticing. Every other method is the
// embedded inner translator's, so a checked drive erases, retires, pools
// and degrades exactly like an unchecked one.
type Checked struct {
	ssd.Translator
	o *Oracle

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
	c := &Checked{Translator: inner, o: NewOracle(seed)}
	inner.SetMappingTap(c.o)
	return c
}

// Oracle exposes the attached shadow oracle (for violation collection).
func (c *Checked) Oracle() *Oracle { return c.o }

// Write implements ssd.Translator: it records the host write in the oracle
// (bumping each covered page's version) and delegates placement.
func (c *Checked) Write(offset, size int64) []nvm.PageOp {
	if size > 0 {
		ps := c.PageSize()
		first, last := offset/ps, (offset+size-1)/ps
		for lpn := first; lpn <= last; lpn++ {
			c.o.BumpVersion(lpn)
		}
	}
	return c.Translator.Write(offset, size)
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
	ops := c.Translator.Read(req, size)
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
	ps := c.PageSize()
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
