package attrib

import (
	"strings"
	"testing"

	"oocnvm/internal/obs"
	"oocnvm/internal/sim"
)

func TestComponentNames(t *testing.T) {
	for c := Component(0); c < NumComponents; c++ {
		if s := c.String(); s == "" || strings.HasPrefix(s, "Component(") {
			t.Fatalf("component %d has no name", c)
		}
		if m := c.MetricName(); !strings.HasPrefix(m, "attrib.") {
			t.Fatalf("metric name %q missing attrib. prefix", m)
		}
		if n := c.csvName(); !strings.HasSuffix(n, "_ps") || strings.Contains(n, "-") {
			t.Fatalf("csv column %q malformed", n)
		}
	}
	if Component(-1).String() != "Component(-1)" {
		t.Fatal("out-of-range String not guarded")
	}
	if KindName(0) != "read" || KindName(1) != "write" || KindName(2) != "erase" {
		t.Fatal("kind names wrong")
	}
	if KindName(9) != "kind(9)" {
		t.Fatal("unknown kind not guarded")
	}
}

func TestRecordArithmetic(t *testing.T) {
	r := Record{Arrive: 100, End: 400}
	r.Comp[Queue] = 50
	r.Comp[DieService] = 200
	r.Comp[BusWait] = 50
	if r.Latency() != 300 {
		t.Fatalf("latency = %v", r.Latency())
	}
	if r.Sum() != 300 || r.Residual() != 0 {
		t.Fatalf("sum = %v residual = %v", r.Sum(), r.Residual())
	}
	r.Comp[DieService] = 100
	if r.Residual() != 100 {
		t.Fatalf("residual after breaking conservation = %v", r.Residual())
	}
}

// drive commits one request built from drive notes plus activation chains,
// returning the recorder for inspection.
func drive(rec *Recorder, arrive, end sim.Time, chains ...func(*Recorder)) {
	rec.Begin(0, 0, 4096, arrive)
	rec.Note(Queue, 10)
	for _, ch := range chains {
		ch(rec)
	}
	rec.Commit(end)
}

func TestCriticalPathKeepsLatestFinishingChain(t *testing.T) {
	rec := NewRecorder(4)
	rec.Begin(0, 0, 4096, 0)
	rec.Note(Queue, 10)
	// Two activations: the second finishes later, so its chain must win.
	rec.StartActivation(false)
	rec.Seg(DieWait, 5)
	rec.Seg(DieService, 20)
	rec.EndActivation(35)
	rec.StartActivation(false)
	rec.Seg(DieWait, 30)
	rec.Seg(DieService, 50)
	rec.EndActivation(90)
	rec.Commit(90)

	s := rec.Summary()
	if s.Requests != 1 || s.Violations != 0 {
		t.Fatalf("requests=%d violations=%d", s.Requests, s.Violations)
	}
	ex := s.Exemplars[0]
	if ex.Comp[DieWait] != 30 || ex.Comp[DieService] != 50 || ex.Comp[Queue] != 10 {
		t.Fatalf("winning chain wrong: %+v", ex.Comp)
	}
	if ex.Residual() != 0 {
		t.Fatalf("residual = %v", ex.Residual())
	}
}

func TestTieKeepsFirstChain(t *testing.T) {
	// Equal finish instants: the first chain wins (strict >), matching
	// sim.MaxTime keeping the first maximum.
	rec := NewRecorder(1)
	rec.Begin(0, 0, 0, 0)
	rec.StartActivation(false)
	rec.Seg(DieService, 40)
	rec.EndActivation(40)
	rec.StartActivation(false)
	rec.Seg(BusXfer, 40)
	rec.EndActivation(40)
	rec.Commit(40)
	ex := rec.Summary().Exemplars[0]
	if ex.Comp[DieService] != 40 || ex.Comp[BusXfer] != 0 {
		t.Fatalf("tie broke toward the later chain: %+v", ex.Comp)
	}
}

func TestGCChainFoldsIntoGCComponent(t *testing.T) {
	rec := NewRecorder(1)
	rec.Begin(1, 0, 4096, 0)
	rec.StartActivation(true)
	rec.Seg(DieWait, 15)
	rec.Seg(DieService, 25)
	rec.EndActivation(40)
	rec.Commit(40)
	ex := rec.Summary().Exemplars[0]
	if ex.Comp[GC] != 40 {
		t.Fatalf("GC fold = %v, want 40", ex.Comp[GC])
	}
	if ex.Comp[DieWait] != 0 || ex.Comp[DieService] != 0 {
		t.Fatalf("GC chain leaked into per-segment components: %+v", ex.Comp)
	}
	if ex.Residual() != 0 {
		t.Fatalf("residual = %v", ex.Residual())
	}
}

func TestPauseSuppressesRecording(t *testing.T) {
	rec := NewRecorder(1)
	rec.Begin(0, 0, 0, 0)
	rec.Pause()
	if rec.DeviceActive() {
		t.Fatal("DeviceActive while paused")
	}
	rec.Note(DieWait, 100)
	rec.NotePages(3, 1)
	rec.StartActivation(false)
	rec.Seg(DieService, 100)
	rec.EndActivation(100)
	rec.Resume()
	rec.Note(Recovery, 50)
	rec.Commit(50)
	ex := rec.Summary().Exemplars[0]
	if ex.Comp[DieWait] != 0 || ex.Comp[DieService] != 0 || ex.Pages != 0 {
		t.Fatalf("paused segments recorded: %+v pages=%d", ex.Comp, ex.Pages)
	}
	if ex.Comp[Recovery] != 50 || ex.Residual() != 0 {
		t.Fatalf("recovery note lost: %+v", ex.Comp)
	}
}

func TestAbortAndViolationAccounting(t *testing.T) {
	rec := NewRecorder(2)
	rec.Begin(0, 0, 0, 0)
	rec.Abort()
	rec.Abort() // no open request: must not double-count
	// A request whose notes under-cover the latency is a violation.
	rec.Begin(0, 0, 0, 0)
	rec.Note(Queue, 30)
	rec.Commit(100)
	s := rec.Summary()
	if s.Aborted != 1 {
		t.Fatalf("aborted = %d", s.Aborted)
	}
	if s.Violations != 1 || s.MaxResidual != 70 {
		t.Fatalf("violations = %d maxResidual = %v", s.Violations, s.MaxResidual)
	}
	if rec.Summary().Violations != 1 || rec.Requests() != 1 {
		t.Fatalf("accessors: violations=%d requests=%d", rec.Summary().Violations, rec.Requests())
	}
}

func TestTopKHeapKeepsSlowest(t *testing.T) {
	rec := NewRecorder(3)
	lat := []sim.Time{50, 200, 10, 150, 90, 300, 70}
	for _, l := range lat {
		rec.Begin(0, 0, 0, 0)
		rec.Note(DieService, l)
		rec.Commit(l)
	}
	s := rec.Summary()
	if len(s.Exemplars) != 3 {
		t.Fatalf("exemplars = %d", len(s.Exemplars))
	}
	want := []sim.Time{300, 200, 150}
	for i, ex := range s.Exemplars {
		if ex.Latency() != want[i] {
			t.Fatalf("exemplar %d latency = %v, want %v", i, ex.Latency(), want[i])
		}
	}
	// Equal latencies keep the earlier request (strict > replacement) and
	// sort ID-ascending.
	rec2 := NewRecorder(2)
	for i := 0; i < 4; i++ {
		rec2.Begin(0, int64(i), 0, 0)
		rec2.Note(Queue, 100)
		rec2.Commit(100)
	}
	s2 := rec2.Summary()
	if s2.Exemplars[0].ID != 0 || s2.Exemplars[1].ID != 1 {
		t.Fatalf("tie eviction kept IDs %d,%d, want 0,1",
			s2.Exemplars[0].ID, s2.Exemplars[1].ID)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var rec *Recorder
	rec.Begin(0, 0, 0, 0)
	rec.Abort()
	rec.Note(Queue, 1)
	rec.NotePages(1, 0)
	rec.Pause()
	rec.Resume()
	rec.StartActivation(false)
	rec.Seg(DieWait, 1)
	rec.EndActivation(1)
	rec.Commit(1)
	rec.BindRegistry(obs.NewRegistry())
	if rec.DeviceActive() {
		t.Fatal("nil recorder active")
	}
	if rec.Requests() != 0 || rec.Summary().Violations != 0 {
		t.Fatal("nil recorder counted")
	}
	if s := rec.Summary(); s.Requests != 0 || len(s.Exemplars) != 0 {
		t.Fatal("nil recorder summary non-zero")
	}
}

func TestBindRegistryObservesComponents(t *testing.T) {
	reg := obs.NewRegistry()
	rec := NewRecorder(1)
	rec.BindRegistry(reg)
	rec.Begin(0, 0, 0, 0)
	rec.Note(Queue, sim.Microsecond)
	rec.Note(DieService, 2*sim.Microsecond)
	rec.Commit(3 * sim.Microsecond)
	snap := reg.Snapshot()
	got := map[string]int64{}
	for _, h := range snap.Histograms {
		got[h.Name] = h.Count
	}
	if got["attrib.queue"] != 1 || got["attrib.die-service"] != 1 || got["attrib.e2e"] != 1 {
		t.Fatalf("histogram counts = %v", got)
	}
	// Empty components exist (bound eagerly) but hold no samples.
	if got["attrib.gc"] != 0 {
		t.Fatalf("empty component observed: %v", got)
	}
}

func TestSummaryTableAndCSV(t *testing.T) {
	rec := NewRecorder(2)
	drive(rec, 0, 100, func(r *Recorder) {
		r.StartActivation(false)
		r.Seg(DieService, 90)
		r.EndActivation(90)
	})
	s := rec.Summary()
	tbl := s.FormatTable()
	for _, want := range []string{"latency attribution: 1 requests", "die-service", "queue"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
	if strings.Contains(tbl, "CONSERVATION") {
		t.Fatalf("clean run flagged:\n%s", tbl)
	}

	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if cols := strings.Count(lines[0], ","); cols != 7+int(NumComponents) {
		t.Fatalf("csv columns = %d, want %d", cols+1, 8+int(NumComponents))
	}
	if !strings.HasSuffix(lines[1], ",0") {
		t.Fatalf("residual column non-zero: %s", lines[1])
	}

	// Ranked orders by mass, heaviest first.
	r := s.Ranked()
	if len(r) != 2 || r[0] != DieService || r[1] != Queue {
		t.Fatalf("ranked = %v", r)
	}
}

func TestViolationBannerInTable(t *testing.T) {
	rec := NewRecorder(1)
	rec.Begin(0, 0, 0, 0)
	rec.Commit(100) // nothing attributed
	tbl := rec.Summary().FormatTable()
	if !strings.Contains(tbl, "CONSERVATION VIOLATED") {
		t.Fatalf("violation banner missing:\n%s", tbl)
	}
}

// TestSteadyStateAllocations pins the zero-alloc guarantee: once the
// exemplar heap is at capacity, a full Begin/Note/activation/Commit cycle —
// including bound histograms — performs no heap allocations.
func TestSteadyStateAllocations(t *testing.T) {
	rec := NewRecorder(4)
	rec.BindRegistry(obs.NewRegistry())
	lat := sim.Time(0)
	cycle := func() {
		lat += 7
		rec.Begin(0, int64(lat), 4096, lat)
		rec.Note(Queue, 3)
		rec.NotePages(2, 1)
		rec.StartActivation(false)
		rec.Seg(DieWait, 2)
		rec.Seg(DieService, lat%97+1)
		rec.EndActivation(lat + lat%97 + 6)
		rec.Commit(lat + lat%97 + 6)
	}
	for i := 0; i < 8; i++ {
		cycle() // fill the heap past capacity
	}
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Fatalf("steady-state allocations per request = %v, want 0", got)
	}
}

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
