// Package check is the cross-layer conformance subsystem: it wraps any
// simulated stack (translator → ssd → nvm over any interconnect) with a
// shadow data-integrity oracle, closed-form analytical envelope checks, and
// a seeded property-based workload generator with trace shrinking. The
// simulator never moves real data, so integrity is checked on the logical
// plane: every placement a translation layer makes is mirrored into a shadow
// map, every translation it serves is verified against that map, and the
// "content" of a physical page is a seeded hash keyed by (LBA, version) that
// must survive GC relocation, superblock retirement, bad-block remap, and
// read-retry unchanged.
package check

import "fmt"

// Violation is one observed departure from a checked invariant.
type Violation struct {
	Kind   string // "integrity", "envelope", "metamorphic" or "error"
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// maxViolations bounds how many violations an oracle or envelope keeps in
// detail; beyond it only the count grows (a broken translator would
// otherwise flood memory with millions of identical reports).
const maxViolations = 64

// Oracle is the shadow data-integrity oracle. It implements nvm.MappingTap
// and maintains the reference logical-to-physical view: mapping (lpn→ppn),
// the per-LBA host write version, and the expected content hash of every
// live physical page. Attach it as a translator's mapping tap (the Checked
// wrapper does this for you).
type Oracle struct {
	seed    uint64
	mapping map[int64]int64  // lpn -> ppn currently holding its content
	owner   map[int64]int64  // ppn -> lpn it holds (live pages only)
	version map[int64]uint64 // lpn -> host write version (bumped by Checked)
	content map[int64]uint64 // ppn -> expected content hash

	viol  []Violation
	nViol int64

	// Verified counters, for reporting.
	PlacementsSeen int64 // MapWrite events
	ReadsVerified  int64 // host-level page reads checked end-to-end
	TrimsSeen      int64 // MapTrim events
}

// NewOracle returns an empty oracle whose content hashes are derived from
// seed; distinct seeds produce unrelated hash streams.
func NewOracle(seed uint64) *Oracle {
	return &Oracle{
		seed:    seed,
		mapping: make(map[int64]int64),
		owner:   make(map[int64]int64),
		version: make(map[int64]uint64),
		content: make(map[int64]uint64),
	}
}

// hash is the simulated content of logical page lpn at write version ver: a
// SplitMix64-style finalizer over (seed, lpn, ver). Two distinct (lpn, ver)
// pairs colliding is as good as impossible, so a matching hash means the
// page really carries the bytes the host last wrote there.
func (o *Oracle) hash(lpn int64, ver uint64) uint64 {
	x := o.seed ^ uint64(lpn)*0x9e3779b97f4a7c15 ^ ver*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (o *Oracle) report(format string, args ...any) {
	o.nViol++
	if len(o.viol) < maxViolations {
		o.viol = append(o.viol, Violation{Kind: "integrity", Detail: fmt.Sprintf(format, args...)})
	}
}

// BumpVersion records a host write to lpn before the translator places it;
// the next placement of lpn carries the new version's content.
func (o *Oracle) BumpVersion(lpn int64) { o.version[lpn]++ }

// MapWrite implements nvm.MappingTap: lpn's current content now lives at
// ppn. Every placement flows through here — host writes, GC relocation,
// retirement relocation — so the shadow map is always the reference answer.
func (o *Oracle) MapWrite(lpn, ppn int64) {
	o.PlacementsSeen++
	// A live physical page may only be re-purposed for the lpn it already
	// holds (an in-place overwrite under identity mapping); anything else is
	// a double placement: two logical pages claiming one physical page.
	if prev, ok := o.owner[ppn]; ok && prev != lpn {
		if cur, live := o.mapping[prev]; live && cur == ppn {
			o.report("double placement: ppn %d assigned to lpn %d while still holding live lpn %d", ppn, lpn, prev)
		}
	}
	if old, ok := o.mapping[lpn]; ok && old != ppn {
		delete(o.content, old)
		delete(o.owner, old)
	}
	o.mapping[lpn] = ppn
	o.owner[ppn] = lpn
	o.content[ppn] = o.hash(lpn, o.version[lpn])
}

// MapRead implements nvm.MappingTap: the translator served a host read of
// lpn from ppn. Never-placed logical pages (preloaded identity content, fs
// metadata regions) have no shadow entry and are skipped.
func (o *Oracle) MapRead(lpn, ppn int64) {
	o.verify(lpn, ppn, "translator")
}

// verify checks that a read of lpn served from ppn returns the content the
// host last wrote. src labels who claimed the translation ("translator" for
// the tap inside the mapping layer, "host" for the end-to-end check in the
// Checked wrapper).
func (o *Oracle) verify(lpn, ppn int64, src string) {
	want, ok := o.mapping[lpn]
	if !ok {
		return
	}
	o.ReadsVerified++
	if ppn != want {
		o.report("%s read of lpn %d served from ppn %d, content lives at ppn %d", src, lpn, ppn, want)
		return
	}
	if got, live := o.content[ppn]; !live {
		o.report("%s read of lpn %d served from ppn %d whose content was invalidated", src, lpn, ppn)
	} else if got != o.hash(lpn, o.version[lpn]) {
		o.report("%s read of lpn %d from ppn %d returned stale content (version skew)", src, lpn, ppn)
	}
}

// MapTrim implements nvm.MappingTap: lpn was unmapped and its content
// discarded.
func (o *Oracle) MapTrim(lpn int64) {
	o.TrimsSeen++
	if ppn, ok := o.mapping[lpn]; ok {
		delete(o.content, ppn)
		delete(o.owner, ppn)
		delete(o.mapping, lpn)
	}
	delete(o.version, lpn)
}

// Violations returns the recorded integrity violations, capped in detail at
// maxViolations (nViol keeps the true total).
func (o *Oracle) Violations() []Violation { return o.viol }
