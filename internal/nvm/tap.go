package nvm

// MappingTap observes a translation layer's placement decisions. The
// conformance subsystem (internal/check) attaches one to the FTL or the
// Direct translator to maintain a shadow copy of the logical-to-physical
// mapping: every placement — host write, GC relocation, retirement
// relocation, bad-block remap — reports through MapWrite, every translation
// served to the host reports through MapRead, and every unmapping reports
// through MapTrim. The simulator moves no real data, so this logical view is
// what end-to-end data-integrity checking is built on.
//
// Taps must be cheap and must not mutate translator state; a nil tap is the
// (free) default everywhere.
type MappingTap interface {
	// MapWrite reports that lpn's current content now lives at ppn.
	MapWrite(lpn, ppn int64)
	// MapRead reports that a host read of lpn was served from ppn.
	MapRead(lpn, ppn int64)
	// MapTrim reports that lpn was unmapped (TRIM/erase); its content is gone.
	MapTrim(lpn int64)
}

// MediaTap observes physical media state at NAND program/erase
// granularity: every program commits the page's payload and OOB (LPN,
// version) tags, every erase clears an eraseblock. The durable-metadata
// FTL attaches its media model here so that a power cut — which stops the
// device mid-request — leaves exactly the committed pages behind, with
// the in-flight op torn (payload garbage, OOB tags never landed). A nil
// tap is the (free) volatile default.
type MediaTap interface {
	// MediaProgram reports that op's page programmed; torn marks the
	// power-cut op whose payload and OOB tags must not be trusted.
	MediaProgram(op PageOp, torn bool)
	// MediaErase reports that op's eraseblock erased; torn marks a
	// power-cut erase (the block's prior contents are already gone —
	// erase pulses destroy data before completing).
	MediaErase(op PageOp, torn bool)
}
