// Package attrib decomposes every request's simulated latency into named
// wait/service components that provably sum to the end-to-end latency —
// the "latency anatomy" lens: queue admission, host-link overhead and DMA,
// channel-bus waits and transfers, die waits and service, read-retry
// ladder steps, garbage-collection stalls and grown-bad-block recovery.
//
// The decomposition is exact by construction. The drive stamps the queue,
// overhead and recovery segments as differences of its own timestamps; the
// device records, for each cell activation it schedules, the chain of
// timestamp differences from dispatch to that activation's completion, and
// keeps the chain of the activation that finished last (the critical path
// of sim.MaxTime). Every segment is a difference of two adjacent simulated
// instants, so the components telescope to exactly end minus arrival; the
// residual of a committed record is always zero, and internal/check
// enforces that invariant as a conformance envelope.
//
// A Recorder is strictly request-scoped and allocation-free in steady
// state: records are fixed-size value types, the exemplar collector is a
// preallocated bounded min-heap, and histogram observation reuses the
// obs.Histogram fixed bucket array. All Recorder methods are nil-safe so
// instrumented layers can call through an absent recorder for free.
package attrib

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"oocnvm/internal/obs"
	"oocnvm/internal/sim"
)

// Component names one slice of a request's latency anatomy.
type Component int

// The component taxonomy. Order is the waterfall rendering order: host-side
// first, then interconnect, then device-internal, then exceptional work.
const (
	// Queue is time spent waiting for a native-command-queue slot or
	// readahead-window bytes (including sync barrier drains).
	Queue Component = iota
	// HostOverhead is the host link's fixed per-request cost (protocol
	// re-encoding in bridges, network round-trip setup).
	HostOverhead
	// LinkWait is host-link queueing: time serialized behind other
	// transfers on the shared host link beyond the pure wire time.
	LinkWait
	// LinkXfer is pure host-link wire time for the critical page's data.
	LinkXfer
	// BusWait is channel-bus contention: waiting for the shared channel
	// bus behind other dies' transfers.
	BusWait
	// BusXfer is channel-bus occupancy moving the critical data.
	BusXfer
	// DieWait is cell contention: waiting for the target die to become
	// idle (earlier activations, register staging drains).
	DieWait
	// DieService is die work on the critical path: sensing, programming,
	// erasing, and register staging of the critical page.
	DieService
	// Retry is the read-retry ladder: extra stepped re-senses the ECC
	// budget demanded on the critical activation.
	Retry
	// GC is garbage-collection stall time: the whole critical-path chain
	// of an activation carrying only relocation/erase traffic, plus the
	// portion of a host chain's entry die-wait spent behind this request's
	// own foreground collection on the same die.
	GC
	// Meta is durable-metadata overhead: the whole critical-path chain of
	// an activation carrying only FTL journal/checkpoint pages, plus the
	// erase-barrier delay durable mode imposes so victim erases never
	// reorder ahead of the metadata that made them safe.
	Meta
	// Recovery is exceptional repair work: grown-bad-block relocation
	// traffic serviced inline after the request's own media work, and
	// mount-time crash recovery (journal replay + open-superblock scan).
	Recovery

	// NumComponents is the taxonomy size; component arrays index by it.
	NumComponents
)

var componentNames = [NumComponents]string{
	"queue", "host-overhead", "link-wait", "link-xfer",
	"bus-wait", "bus-xfer", "die-wait", "die-service",
	"read-retry", "gc", "meta-journal", "recovery",
}

// String names the component ("queue", "die-service", ...).
func (c Component) String() string {
	if c < 0 || c >= NumComponents {
		return fmt.Sprintf("Component(%d)", int(c))
	}
	return componentNames[c]
}

// MetricName is the component's latency-histogram name in the metrics
// registry ("attrib.queue", ...).
func (c Component) MetricName() string { return "attrib." + componentNames[c] }

// csvName is the component's CSV column ("queue_ps", "die_service_ps", ...).
func (c Component) csvName() string {
	return strings.ReplaceAll(componentNames[c], "-", "_") + "_ps"
}

// kindNames maps trace.Kind values (uint8: read=0, write=1, erase=2)
// without importing the trace package; kind 3 is the synthetic mount
// record the drive commits for crash recovery (no block op carries it).
var kindNames = [...]string{"read", "write", "erase", "mount"}

// KindName names a block-operation kind byte.
func KindName(k uint8) string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Record is one request's complete latency anatomy. It is a fixed-size
// value type (no pointers) so exemplar collection never allocates.
type Record struct {
	ID      int64 // submission sequence number, 0-based
	Kind    uint8 // trace.Kind byte: read=0, write=1, erase=2
	Offset  int64
	Size    int64
	Arrive  sim.Time
	End     sim.Time
	Pages   int32 // page ops the translator emitted
	GCPages int32 // of which garbage-collection traffic
	Comp    [NumComponents]sim.Time
}

// Latency is the request's end-to-end simulated latency.
func (r Record) Latency() sim.Time { return r.End - r.Arrive }

// Sum totals the attributed components.
func (r Record) Sum() sim.Time {
	var t sim.Time
	for _, d := range r.Comp {
		t += d
	}
	return t
}

// Residual is latency minus the component sum — zero for every committed
// record when the conservation invariant holds.
func (r Record) Residual() sim.Time { return r.Latency() - r.Sum() }

// Dominant returns the component holding the largest share (ties to the
// earlier component in waterfall order) and its duration.
func (r Record) Dominant() (Component, sim.Time) {
	dc, dv := Component(0), sim.Time(0)
	for c, d := range r.Comp {
		if d > dv {
			dc, dv = Component(c), d
		}
	}
	return dc, dv
}

// DefaultTopK is the default slow-request exemplar capacity.
const DefaultTopK = 16

// Recorder is the request-scoped attribution context one drive threads
// through its stack. It is single-goroutine like the simulator itself, and
// all methods are nil-safe (a nil *Recorder records nothing).
type Recorder struct {
	active bool
	paused int
	nextID int64
	cur    Record

	// Critical-path scratch: the per-activation chain being recorded, and
	// the best (latest-finishing) chain seen for the current request.
	// actFold/bestFold name the component a winning chain collapses into
	// wholesale (GC for relocation-only activations, Meta for
	// journal-only ones), or noFold for an ordinary per-component chain.
	inAct     bool
	actFold   Component
	scratch   [NumComponents]sim.Time
	bestSet   bool
	bestFold  Component
	bestEnd   sim.Time
	bestChain [NumComponents]sim.Time

	// Aggregates over committed requests.
	requests     int64
	aborted      int64
	violations   int64
	maxResidual  sim.Time
	totalLatency sim.Time
	totals       [NumComponents]sim.Time
	dominant     [NumComponents]int64

	// Optional registry-backed histograms (BindRegistry).
	hComp [NumComponents]*obs.Histogram
	// reg backs the lazy Meta histogram (see BindRegistry).
	reg  *obs.Registry
	hE2E *obs.Histogram

	// Bounded min-heap of the slowest requests, keyed by latency.
	topK []Record
	k    int
}

// NewRecorder builds a recorder keeping the k slowest requests as
// exemplars (k <= 0 selects DefaultTopK). The exemplar heap is
// preallocated; steady-state recording performs no allocations.
func NewRecorder(k int) *Recorder {
	if k <= 0 {
		k = DefaultTopK
	}
	return &Recorder{k: k, topK: make([]Record, 0, k)}
}

// BindRegistry creates the per-component latency histograms
// ("attrib.<component>") and the end-to-end histogram ("attrib.e2e") in r
// and routes every commit's observations into them.
func (rec *Recorder) BindRegistry(r *obs.Registry) {
	if rec == nil || r == nil {
		return
	}
	for c := Component(0); c < NumComponents; c++ {
		if c == Meta {
			// Registered lazily on the first observation: a run that
			// never books durable-metadata time keeps its exported
			// artifacts byte-identical to builds predating the component.
			continue
		}
		rec.hComp[c] = r.Histogram(c.MetricName())
	}
	rec.reg = r
	rec.hE2E = r.Histogram("attrib.e2e")
}

// Begin opens attribution for one request arriving at the given instant.
// An unfinished previous request (neither Commit nor Abort) is discarded.
func (rec *Recorder) Begin(kind uint8, offset, size int64, arrive sim.Time) {
	if rec == nil {
		return
	}
	rec.cur = Record{ID: rec.nextID, Kind: kind, Offset: offset, Size: size, Arrive: arrive}
	rec.nextID++
	rec.active = true
	rec.paused = 0
	rec.inAct = false
	rec.bestSet = false
	rec.bestFold = noFold
	rec.bestEnd = 0
}

// Abort discards the open request (rejected before reaching the media:
// out-of-range, read-only degradation).
func (rec *Recorder) Abort() {
	if rec == nil || !rec.active {
		return
	}
	rec.active = false
	rec.aborted++
}

// Note attributes a drive-level segment (queue wait, recovery time) to the
// open request.
func (rec *Recorder) Note(c Component, d sim.Time) {
	if rec == nil || !rec.active || rec.paused > 0 || d <= 0 {
		return
	}
	rec.cur.Comp[c] += d
}

// NotePages records the translated page-op population of the request.
func (rec *Recorder) NotePages(total, gc int) {
	if rec == nil || !rec.active || rec.paused > 0 {
		return
	}
	rec.cur.Pages += int32(total)
	rec.cur.GCPages += int32(gc)
}

// DeviceActive reports whether the device should record activation chains:
// a request is open and recovery traffic is not being replayed.
func (rec *Recorder) DeviceActive() bool {
	return rec != nil && rec.active && rec.paused == 0
}

// Pause suppresses recording (the drive replays recovery relocation
// through the device; its activations are charged wholesale to Recovery,
// not traced as the request's own chain). Pairs with Resume.
func (rec *Recorder) Pause() {
	if rec == nil {
		return
	}
	rec.paused++
}

// Resume re-enables recording after a Pause.
func (rec *Recorder) Resume() {
	if rec == nil || rec.paused == 0 {
		return
	}
	rec.paused--
}

// noFold marks an ordinary activation chain that commits per-component.
const noFold Component = -1

// StartActivation opens one cell activation's chain. gc marks a chain
// carrying only garbage-collection traffic; if it wins the critical path
// its whole chain is folded into the GC component.
func (rec *Recorder) StartActivation(gc bool) {
	fold := noFold
	if gc {
		fold = GC
	}
	rec.StartActivationFold(fold)
}

// StartActivationFold opens one cell activation's chain that, should it
// win the critical path, collapses wholesale into the given component
// (GC for relocation-only, Meta for journal-only activations). Pass a
// negative component for an ordinary per-component chain.
func (rec *Recorder) StartActivationFold(fold Component) {
	if !rec.DeviceActive() {
		return
	}
	rec.inAct = true
	rec.actFold = fold
	rec.scratch = [NumComponents]sim.Time{}
}

// Seg attributes one segment of the open activation's chain.
func (rec *Recorder) Seg(c Component, d sim.Time) {
	if rec == nil || !rec.inAct || d <= 0 {
		return
	}
	rec.scratch[c] += d
}

// EndActivation closes the open activation's chain, finishing at done.
// The latest-finishing activation is the request's critical path (strict
// ordering matches sim.MaxTime keeping the first maximum).
func (rec *Recorder) EndActivation(done sim.Time) {
	if rec == nil || !rec.inAct {
		return
	}
	rec.inAct = false
	if !rec.bestSet || done > rec.bestEnd {
		rec.bestSet = true
		rec.bestEnd = done
		rec.bestFold = rec.actFold
		rec.bestChain = rec.scratch
	}
}

// Commit closes the open request at its completion time: folds the winning
// activation chain into the record, verifies conservation, feeds the
// aggregates and histograms, and offers the record to the exemplar heap.
func (rec *Recorder) Commit(end sim.Time) {
	if rec == nil || !rec.active {
		return
	}
	rec.active = false
	r := &rec.cur
	r.End = end
	if rec.bestSet {
		if rec.bestFold >= 0 {
			var t sim.Time
			for _, d := range rec.bestChain {
				t += d
			}
			r.Comp[rec.bestFold] += t
		} else {
			for c, d := range rec.bestChain {
				r.Comp[c] += d
			}
		}
	}
	lat := r.Latency()
	if res := lat - r.Sum(); res != 0 {
		rec.violations++
		if res < 0 {
			res = -res
		}
		if res > rec.maxResidual {
			rec.maxResidual = res
		}
	}
	rec.requests++
	rec.totalLatency += lat
	domC, domV := Component(0), sim.Time(0)
	for c := range r.Comp {
		d := r.Comp[c]
		rec.totals[c] += d
		if d > domV {
			domC, domV = Component(c), d
		}
		if d > 0 {
			if rec.hComp[c] == nil && rec.reg != nil && Component(c) == Meta {
				rec.hComp[c] = rec.reg.Histogram(Component(c).MetricName())
			}
			if rec.hComp[c] != nil {
				rec.hComp[c].Observe(d)
			}
		}
	}
	if domV > 0 {
		rec.dominant[domC]++
	}
	if rec.hE2E != nil {
		rec.hE2E.Observe(lat)
	}
	rec.offer(*r)
}

// offer inserts the record into the bounded min-heap of slowest requests.
func (rec *Recorder) offer(r Record) {
	if rec.k <= 0 {
		return
	}
	h := rec.topK
	if len(h) < rec.k {
		h = append(h, r)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h[p].Latency() <= h[i].Latency() {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		rec.topK = h
		return
	}
	if r.Latency() <= h[0].Latency() {
		return
	}
	h[0] = r
	n := len(h)
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < n && h[l].Latency() < h[small].Latency() {
			small = l
		}
		if rr := 2*i + 2; rr < n && h[rr].Latency() < h[small].Latency() {
			small = rr
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Reset clears the recorder's aggregates, exemplar heap and any open
// request while keeping the exemplar backing storage and the registry
// histogram bindings, so a recorder reused across runs records into
// recycled memory. The request ID sequence restarts at zero.
func (rec *Recorder) Reset() {
	if rec == nil {
		return
	}
	rec.active = false
	rec.paused = 0
	rec.nextID = 0
	rec.inAct = false
	rec.bestSet = false
	rec.bestFold = noFold
	rec.bestEnd = 0
	rec.requests = 0
	rec.aborted = 0
	rec.violations = 0
	rec.maxResidual = 0
	rec.totalLatency = 0
	rec.totals = [NumComponents]sim.Time{}
	rec.dominant = [NumComponents]int64{}
	rec.topK = rec.topK[:0]
}

// Requests reports how many requests have been committed.
func (rec *Recorder) Requests() int64 {
	if rec == nil {
		return 0
	}
	return rec.requests
}

// Violations reports how many committed requests broke conservation
// (components failed to sum to the end-to-end latency) — always zero when
// the instrumentation is correct.
func (rec *Recorder) Violations() int64 {
	if rec == nil {
		return 0
	}
	return rec.violations
}

// Summary is the analysis-ready aggregate of one recorder's lifetime.
type Summary struct {
	// Requests committed; Aborted were rejected before the media.
	Requests int64
	Aborted  int64
	// Violations counts committed requests whose components did not sum
	// to the end-to-end latency; MaxResidual is the worst absolute gap.
	Violations  int64
	MaxResidual sim.Time
	// TotalLatency sums end-to-end latency over all committed requests.
	TotalLatency sim.Time
	// Totals is the per-component latency mass; Dominant counts requests
	// whose anatomy each component dominated.
	Totals   [NumComponents]sim.Time
	Dominant [NumComponents]int64
	// Exemplars are the slowest requests, latency-descending (ID ascending
	// on ties), complete with their per-component anatomy.
	Exemplars []Record
}

// Summary snapshots the recorder (allocates; call at export time).
// A nil recorder yields a zero summary.
func (rec *Recorder) Summary() Summary {
	if rec == nil {
		return Summary{}
	}
	s := Summary{
		Requests:     rec.requests,
		Aborted:      rec.aborted,
		Violations:   rec.violations,
		MaxResidual:  rec.maxResidual,
		TotalLatency: rec.totalLatency,
		Totals:       rec.totals,
		Dominant:     rec.dominant,
		Exemplars:    append([]Record(nil), rec.topK...),
	}
	sort.Slice(s.Exemplars, func(i, j int) bool {
		a, b := s.Exemplars[i], s.Exemplars[j]
		if a.Latency() != b.Latency() {
			return a.Latency() > b.Latency()
		}
		return a.ID < b.ID
	})
	return s
}

// Ranked returns the components ordered by total latency mass, heaviest
// first (ties in waterfall order), dropping empty components.
func (s Summary) Ranked() []Component {
	out := make([]Component, 0, NumComponents)
	for c := Component(0); c < NumComponents; c++ {
		if s.Totals[c] > 0 {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return s.Totals[out[i]] > s.Totals[out[j]] })
	return out
}

// FormatTable renders the critical-path ranking as an aligned table:
// each component's total latency mass, its share of all request latency,
// and how many requests it dominated.
func (s Summary) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "latency attribution: %d requests", s.Requests)
	if s.Aborted > 0 {
		fmt.Fprintf(&b, " (%d rejected)", s.Aborted)
	}
	if s.Violations > 0 {
		fmt.Fprintf(&b, " — CONSERVATION VIOLATED on %d (max residual %v)", s.Violations, s.MaxResidual)
	}
	b.WriteString("\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "  component\ttotal\tshare\tdominates\n")
	for _, c := range s.Ranked() {
		share := 0.0
		if s.TotalLatency > 0 {
			share = 100 * float64(s.Totals[c]) / float64(s.TotalLatency)
		}
		fmt.Fprintf(w, "  %s\t%v\t%.1f%%\t%d\n", c, s.Totals[c], share, s.Dominant[c])
	}
	w.Flush()
	return b.String()
}

// WriteCSV emits the exemplar records as deterministic CSV: one row per
// slow request, latency-descending, with one picosecond column per
// component plus the conservation residual.
func (s Summary) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("id,kind,offset,size,arrive_ps,end_ps,latency_ps")
	for c := Component(0); c < NumComponents; c++ {
		b.WriteByte(',')
		b.WriteString(c.csvName())
	}
	b.WriteString(",residual_ps\n")
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, r := range s.Exemplars {
		b.Reset()
		fmt.Fprintf(&b, "%d,%s,%d,%d,%d,%d,%d",
			r.ID, KindName(r.Kind), r.Offset, r.Size,
			int64(r.Arrive), int64(r.End), int64(r.Latency()))
		for _, d := range r.Comp {
			fmt.Fprintf(&b, ",%d", int64(d))
		}
		fmt.Fprintf(&b, ",%d\n", int64(r.Residual()))
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
