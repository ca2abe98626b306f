package netfault

import (
	"errors"
	"strings"
	"testing"

	"oocnvm/internal/interconnect"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/sim"
)

// testLink is a 1 GB/s line with a 10 us per-request cost.
func testLink() *interconnect.Line {
	return interconnect.NewLine("testnet", 1e9, 10*sim.Microsecond)
}

func mustTransfer(t *testing.T, spec Spec, prof Profile) *Transfer {
	t.Helper()
	tr, err := NewTransfer(spec, Wrap(testLink(), prof))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestForName(t *testing.T) {
	for _, name := range []string{"none", "wan", "lossy", "congested", "flaky", "outage", "blackout"} {
		p, err := ForName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.EqualFold(p.Name, name) {
			t.Fatalf("ForName(%q) = %q", name, p.Name)
		}
	}
	if p, err := ForName(""); err != nil || p.Enabled() {
		t.Fatalf("empty name should be the clean profile: %+v, %v", p, err)
	}
	if _, err := ForName("bogus"); err == nil {
		t.Fatal("bogus profile accepted")
	}
}

func TestProfileAvailability(t *testing.T) {
	p := Profile{Outages: []Window{
		{Start: 100, End: 200},
		{Start: 200, End: 300}, // adjacent: the hold must chain through
	}}
	if at, ok := p.Available(150); !ok || at != 300 {
		t.Fatalf("Available(150) = %v, %v; want 300, true", at, ok)
	}
	if at, ok := p.Available(50); !ok || at != 50 {
		t.Fatalf("Available(50) = %v, %v; want 50, true", at, ok)
	}
	if !p.PositiveAvailability() {
		t.Fatal("finite windows must leave availability")
	}
	b := Profile{Outages: []Window{{Start: 0, End: NeverEnds}}}
	if _, ok := b.Available(10); ok {
		t.Fatal("permanent partition reported available")
	}
	if b.PositiveAvailability() {
		t.Fatal("permanent partition reported positive availability")
	}
}

func TestCleanTransferMatchesLink(t *testing.T) {
	spec := Spec{Name: "clean", TotalBytes: 256 << 20, ChunkBytes: 16 << 20, Seed: 7}
	tr := mustTransfer(t, spec, Profile{Name: "none"})
	res, err := tr.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Retries != 0 || res.WireBytes != res.PayloadBytes {
		t.Fatalf("clean run degraded: %+v", res)
	}
	if res.PayloadBytes != spec.TotalBytes {
		t.Fatalf("payload %d != total %d", res.PayloadBytes, spec.TotalBytes)
	}
	// Goodput approaches but cannot beat the 1 GB/s line.
	if res.Goodput > 1e9*1.01 || res.Goodput < 0.9e9 {
		t.Fatalf("clean goodput %.0f B/s outside the link envelope", res.Goodput)
	}
}

func TestSameSeedDeterminism(t *testing.T) {
	spec := Spec{Name: "det", TotalBytes: 128 << 20, ChunkBytes: 8 << 20, Seed: 11}
	prof, _ := ForName("flaky")
	a, errA := mustTransfer(t, spec, prof).Run(0)
	b, errB := mustTransfer(t, spec, prof).Run(0)
	if errA != nil || errB != nil {
		t.Fatalf("runs failed: %v, %v", errA, errB)
	}
	if a != b {
		t.Fatalf("same-seed results differ:\n%+v\n%+v", a, b)
	}
}

func TestParallelismInvariantOutcomes(t *testing.T) {
	prof, _ := ForName("lossy")
	base := Spec{Name: "par", TotalBytes: 256 << 20, ChunkBytes: 8 << 20, Seed: 3}
	p1 := base
	p1.Parallel = 1
	p4 := base
	p4.Parallel = 4
	a, errA := mustTransfer(t, p1, prof).Run(0)
	b, errB := mustTransfer(t, p4, prof).Run(0)
	if errA != nil || errB != nil {
		t.Fatalf("runs failed: %v, %v", errA, errB)
	}
	if a.Losses != b.Losses || a.Corruptions != b.Corruptions ||
		a.Retries != b.Retries || a.WireBytes != b.WireBytes ||
		a.BitmapFNV != b.BitmapFNV || a.PayloadFNV != b.PayloadFNV {
		t.Fatalf("fault pattern depends on parallelism:\n%+v\n%+v", a, b)
	}
	if b.End >= a.End {
		t.Fatalf("four streams (%v) not faster than one (%v)", b.End, a.End)
	}
}

func TestLossyTransferRetriesAndConserves(t *testing.T) {
	rec := attrib.NewRecorder(8)
	// A fixed-cost source and sink stand in for the RAID staging read of a
	// preload and the far-end store of a checkpoint drain.
	stage := func(at sim.Time, _ int, _, _ int64) sim.Time { return at + 50*sim.Microsecond }
	spec := Spec{Name: "lossy", TotalBytes: 512 << 20, ChunkBytes: 4 << 20, Seed: 5,
		Source: stage, Sink: stage}
	prof, _ := ForName("flaky")
	tr := mustTransfer(t, spec, prof)
	tr.SetRecorder(rec)
	res, err := tr.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 || res.Losses == 0 || res.Corruptions == 0 {
		t.Fatalf("flaky profile injected nothing: %+v", res)
	}
	if res.WireBytes <= res.PayloadBytes {
		t.Fatalf("corrupt retransmissions must inflate wire bytes: wire %d, payload %d",
			res.WireBytes, res.PayloadBytes)
	}
	if res.RetryTime <= 0 || res.BackoffTime <= 0 {
		t.Fatalf("retry/backoff time not accounted: %+v", res)
	}
	if got := rec.Requests(); got != int64(res.Delivered) {
		t.Fatalf("recorder committed %d, delivered %d", got, res.Delivered)
	}
	if rec.Summary().Violations != 0 {
		t.Fatalf("attribution conservation violated %d times", rec.Summary().Violations)
	}
	sum := rec.Summary()
	if sum.Totals[attrib.Retry] <= 0 || sum.Totals[attrib.Recovery] <= 0 {
		t.Fatalf("retry/recovery components empty: %+v", sum.Totals)
	}
	if sum.Totals[attrib.Queue] <= 0 || sum.Totals[attrib.DieService] <= 0 {
		t.Fatalf("source staging/sink store components empty: %+v", sum.Totals)
	}
	for _, ex := range sum.Exemplars {
		if ex.Residual() != 0 {
			t.Fatalf("exemplar %d residual %v", ex.ID, ex.Residual())
		}
	}
}

func TestOutageStallsButCompletes(t *testing.T) {
	prof, _ := ForName("outage")
	spec := Spec{Name: "out", TotalBytes: 512 << 20, ChunkBytes: 16 << 20, Seed: 9}
	res, err := mustTransfer(t, spec, prof).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("finite outages must not kill the transfer: %+v", res)
	}
	if res.StallTime <= 0 {
		t.Fatalf("transfer crossed the outage windows without stalling: %+v", res)
	}
	clean, _ := mustTransfer(t, spec, Profile{Name: "none"}).Run(0)
	if res.End <= clean.End {
		t.Fatal("degraded run finished no later than the clean run")
	}
}

func TestBlackoutNeverCompletes(t *testing.T) {
	prof, _ := ForName("blackout")
	spec := Spec{Name: "dark", TotalBytes: 64 << 20, Seed: 1}
	res, err := mustTransfer(t, spec, prof).Run(0)
	if !errors.Is(err, ErrNoAvailability) {
		t.Fatalf("err = %v, want ErrNoAvailability", err)
	}
	if res.Completed || res.PayloadBytes != 0 {
		t.Fatalf("blackout delivered data: %+v", res)
	}
}

func TestBandwidthCapBoundsGoodput(t *testing.T) {
	prof := Profile{Name: "capped", BandwidthCapBps: 200e6}
	spec := Spec{Name: "cap", TotalBytes: 256 << 20, ChunkBytes: 16 << 20, Seed: 2}
	res, err := mustTransfer(t, spec, prof).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodput > 200e6*1.01 {
		t.Fatalf("goodput %.0f beats the 200 MB/s cap", res.Goodput)
	}
	if res.Goodput < 150e6 {
		t.Fatalf("goodput %.0f far below the cap", res.Goodput)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	prof := Profile{Name: "dead", LossProb: 1}
	spec := Spec{Name: "dead", TotalBytes: 8 << 20, ChunkBytes: 4 << 20, Seed: 4}
	res, err := mustTransfer(t, spec, prof).Run(0)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if res.Completed || res.Losses != maxAttempts {
		t.Fatalf("want %d losses on the first chunk then failure: %+v", maxAttempts, res)
	}
}

func TestResumeMovesFewerBytes(t *testing.T) {
	prof, _ := ForName("lossy")
	full := Spec{Name: "res", TotalBytes: 256 << 20, ChunkBytes: 8 << 20, Seed: 21}

	// Reference: one uninterrupted run.
	ref, err := mustTransfer(t, full, prof).Run(0)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: stop after 12 verified chunks, then resume from the
	// persisted journal as a fresh process would.
	stopped := full
	stopped.StopAfter = 12
	trA := mustTransfer(t, stopped, prof)
	resA, err := trA.Run(0)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if resA.Completed {
		t.Fatal("interrupted run claims completion")
	}
	persisted := trA.Journal().Persisted()

	trB := mustTransfer(t, full, prof)
	j := trB.Journal()
	j.Adopt(persisted)
	resB, err := trB.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.Completed {
		t.Fatalf("resumed run incomplete: %+v", resB)
	}
	// The interrupted run checkpoints its journal on the way out, so all
	// 12 verified chunks are skipped on resume.
	if resB.Skipped != 12 {
		t.Fatalf("resume skipped %d chunks, want 12", resB.Skipped)
	}
	if resB.WireBytes >= ref.WireBytes {
		t.Fatalf("resumed run moved %d wire bytes, from-scratch %d — resume must move strictly fewer",
			resB.WireBytes, ref.WireBytes)
	}
	if resB.BitmapFNV != ref.BitmapFNV {
		t.Fatalf("final bitmap differs: resumed %x, reference %x", resB.BitmapFNV, ref.BitmapFNV)
	}
}

func TestJournalTornWriteRecovery(t *testing.T) {
	j, err := NewJournal("torn", 100, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		j.Mark(i)
	}
	j.Checkpoint()
	for i := 40; i < 70; i++ {
		j.Mark(i)
	}
	j.Checkpoint()

	// Corrupt the newest slot at every byte offset: Restore must always
	// recover the older (40-chunk) image, never garbage.
	for off := 0; off < j.SlotLen(0); off++ {
		jj, _ := NewJournal("torn", 100, 1<<20)
		jj.Adopt(j.Persisted())
		jj.CorruptSlot(0, off, 0xA5)
		if got := jj.Restore(); got != 40 {
			t.Fatalf("corrupt@%d: restored %d chunks, want the older 40", off, got)
		}
	}
	// Truncate the newest slot at every length.
	for n := 0; n < j.SlotLen(0); n++ {
		jj, _ := NewJournal("torn", 100, 1<<20)
		jj.Adopt(j.Persisted())
		jj.TruncateSlot(0, n)
		if got := jj.Restore(); got != 40 {
			t.Fatalf("truncate@%d: restored %d chunks, want the older 40", n, got)
		}
	}
	// Both slots torn: restart from zero, never garbage.
	jj, _ := NewJournal("torn", 100, 1<<20)
	jj.Adopt(j.Persisted())
	jj.CorruptSlot(0, 9, 0xFF)
	jj.CorruptSlot(1, 9, 0xFF)
	if got := jj.Restore(); got != 0 {
		t.Fatalf("both slots torn but restored %d chunks", got)
	}
	// A foreign journal must be refused.
	other, _ := NewJournal("other", 100, 1<<20)
	other.Adopt(j.Persisted())
	if got := other.Restore(); got != 0 {
		t.Fatalf("foreign journal adopted %d chunks", got)
	}
}

func TestResultString(t *testing.T) {
	spec := Spec{Name: "str", TotalBytes: 32 << 20, Seed: 1}
	res, err := mustTransfer(t, spec, Profile{}).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"transfer str", "complete", "goodput"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Result.String() missing %q: %s", want, s)
		}
	}
}

// CorruptSlot XORs mask into byte off of the chosen persisted slot
// (0 = newest, 1 = previous), for torn-write tests.
func (j *Journal) CorruptSlot(slotFromNewest int, off int, mask byte) {
	slot := j.current
	if slotFromNewest == 1 {
		slot = 1 - j.current
	}
	if off >= 0 && off < len(j.slots[slot]) && mask != 0 {
		j.slots[slot][off] ^= mask
	}
}

// TruncateSlot cuts the chosen persisted slot to n bytes, for torn-write
// tests.
func (j *Journal) TruncateSlot(slotFromNewest int, n int) {
	slot := j.current
	if slotFromNewest == 1 {
		slot = 1 - j.current
	}
	if n >= 0 && n < len(j.slots[slot]) {
		j.slots[slot] = j.slots[slot][:n]
	}
}

// SlotLen reports the byte length of the chosen persisted slot.
func (j *Journal) SlotLen(slotFromNewest int) int {
	slot := j.current
	if slotFromNewest == 1 {
		slot = 1 - j.current
	}
	return len(j.slots[slot])
}

// Enabled reports whether the profile can perturb anything at all.
func (p Profile) Enabled() bool {
	return p.AddedLatency > 0 || p.Jitter > 0 || p.LossProb > 0 ||
		p.CorruptProb > 0 || p.BandwidthCapBps > 0 || len(p.Outages) > 0
}
