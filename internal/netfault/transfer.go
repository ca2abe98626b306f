package netfault

import (
	"errors"
	"fmt"
	"hash/fnv"

	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/sim"
)

// Transfer failure modes.
var (
	// ErrNoAvailability marks a transfer stalled inside an outage window
	// that never lifts: no schedule can complete it.
	ErrNoAvailability = errors.New("netfault: outage windows leave no availability")
	// ErrRetriesExhausted marks a chunk that failed every bounded attempt.
	ErrRetriesExhausted = errors.New("netfault: retry budget exhausted")
	// ErrInterrupted marks a transfer stopped by the spec's StopAfter test
	// hook; the journal holds the chunks verified so far.
	ErrInterrupted = errors.New("netfault: transfer interrupted")
)

// Spec shapes one resumable chunked transfer.
type Spec struct {
	// Name identifies the transfer in journals, metrics and reports.
	Name string
	// Kind is the trace.Kind byte attribution records carry (read=0 for a
	// preload pull, write=1 for a checkpoint drain).
	Kind uint8
	// TotalBytes is the payload; ChunkBytes the retransmission unit
	// (default 16 MiB).
	TotalBytes int64
	ChunkBytes int64
	// Parallel is the logical stream count carrying chunks round-robin
	// (default 1). Fault draws are keyed by (seed, chunk, attempt), so the
	// loss/corruption pattern and the final bitmap are identical at any
	// parallelism; only timings shift.
	Parallel int
	// Seed drives every fault and jitter draw via per-(chunk, attempt)
	// derived streams.
	Seed uint64
	// Source, when set, stages the chunk's data to the link entrance (RAID
	// and storage-attachment time in a preload); its duration lands in the
	// queue component. Called once per attempt: retransmissions re-read.
	Source func(at sim.Time, index int, off, n int64) sim.Time
	// Sink, when set, stores the chunk at the far end (RAID write-back in
	// a checkpoint drain); its duration lands in the die-service
	// component.
	Sink func(at sim.Time, index int, off, n int64) sim.Time
	// StopAfter interrupts the run after this many newly verified chunks
	// (0 = run to completion) — the test hook for resume scenarios.
	StopAfter int
}

// Each chunk gets at most maxAttempts delivery attempts. The backoff
// between attempts starts at baseBackoff and doubles per retry up to
// maxBackoff, plus a deterministic jitter of up to half the computed delay.
// The journal checkpoints the chunk bitmap after every journalEvery newly
// verified chunks, and once more when the run ends.
const (
	maxAttempts  = 8
	baseBackoff  = sim.Millisecond
	maxBackoff   = 128 * sim.Millisecond
	journalEvery = 16
)

// withDefaults fills the zero fields.
func (s Spec) withDefaults() Spec {
	if s.ChunkBytes <= 0 {
		s.ChunkBytes = 16 << 20
	}
	if s.Parallel <= 0 {
		s.Parallel = 1
	}
	return s
}

// Result is one transfer run's outcome. It is comparable (no slices,
// maps or errors), so same-seed determinism checks are a single ==.
type Result struct {
	Name       string
	TotalBytes int64
	ChunkBytes int64
	Chunks     int
	// Skipped chunks were already verified in the adopted journal;
	// Delivered were verified by this run.
	Skipped   int
	Delivered int
	Completed bool
	// Err names the failure mode of an incomplete run ("" when complete).
	Err string
	// Start and End bound the run in simulated time.
	Start, End sim.Time
	// PayloadBytes is this run's verified payload; WireBytes counts every
	// byte that crossed the wire, including corrupt attempts.
	PayloadBytes int64
	WireBytes    int64
	// Attempts, Retries and the loss/corruption split.
	Attempts    int64
	Retries     int64
	Losses      int64
	Corruptions int64
	// StallTime is outage hold time, BackoffTime inter-attempt backoff,
	// RetryTime the total duration of failed attempts.
	StallTime   sim.Time
	BackoffTime sim.Time
	RetryTime   sim.Time
	// Goodput is this run's verified payload over its wall time.
	Goodput float64
	// BitmapFNV fingerprints the final verified-chunk bitmap; PayloadFNV
	// folds every chunk verified by this run's per-chunk checksums.
	BitmapFNV  uint64
	PayloadFNV uint64
	// JournalWrites counts bitmap checkpoints persisted during the run.
	JournalWrites int64
}

// String summarizes the run for CLI output.
func (r Result) String() string {
	status := "complete"
	if !r.Completed {
		status = "INCOMPLETE (" + r.Err + ")"
	}
	return fmt.Sprintf(
		"transfer %s: %s, %d/%d chunks (%d resumed), %v, goodput %.1f MB/s, "+
			"%d retries (%d lost, %d corrupt), stall %v, backoff %v",
		r.Name, status, r.Skipped+r.Delivered, r.Chunks, r.Skipped,
		r.End-r.Start, r.Goodput/1e6, r.Retries, r.Losses, r.Corruptions,
		r.StallTime, r.BackoffTime)
}

// Transfer is one resumable chunked transfer over a degraded path.
type Transfer struct {
	spec Spec
	link *Degraded
	j    *Journal
	rec  *attrib.Recorder
}

// NewTransfer builds a transfer of spec over the degraded link.
func NewTransfer(spec Spec, link *Degraded) (*Transfer, error) {
	spec = spec.withDefaults()
	if spec.TotalBytes <= 0 {
		return nil, fmt.Errorf("netfault: transfer needs positive TotalBytes, got %d", spec.TotalBytes)
	}
	if link == nil {
		return nil, fmt.Errorf("netfault: transfer needs a link")
	}
	return &Transfer{spec: spec, link: link}, nil
}

// Journal returns the transfer's chunk-bitmap journal, creating it on
// first use so every run can be interrupted and resumed: Run restores it
// and skips already-verified chunks.
func (t *Transfer) Journal() *Journal {
	if t.j == nil {
		t.j, _ = NewJournal(t.spec.Name, t.Chunks(), t.spec.ChunkBytes)
	}
	return t.j
}

// SetRecorder routes per-chunk latency anatomy (queue staging, overhead,
// link wait/transfer, retry, recovery) into rec; segments telescope to
// exactly each chunk's arrival-to-verified latency.
func (t *Transfer) SetRecorder(rec *attrib.Recorder) { t.rec = rec }

// Chunks reports the transfer's chunk population.
func (t *Transfer) Chunks() int {
	return int((t.spec.TotalBytes + t.spec.ChunkBytes - 1) / t.spec.ChunkBytes)
}

// chunkSum is the deterministic per-chunk payload checksum (the simulator
// times transfers without storing payloads; the checksum models end-to-end
// verification and keys the bitmap fingerprint).
func chunkSum(name string, index int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint(index) >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

// attemptRNG derives the independent fault stream of one (chunk, attempt)
// pair, so the fault pattern is invariant under parallelism and resume.
func attemptRNG(seed uint64, chunk, attempt int) *sim.RNG {
	x := seed
	x ^= (uint64(chunk) + 1) * 0x9e3779b97f4a7c15
	x ^= (uint64(attempt) + 1) * 0xbf58476d1ce4e5b9
	return sim.NewRNG(x)
}

// timeout is the per-attempt ack timeout a lost chunk burns: twice the
// clean chunk time plus overhead and jitter headroom.
func (t *Transfer) timeout() sim.Time {
	clean := sim.DurationForBytes(t.spec.ChunkBytes, t.link.EffectiveBps())
	return 2 * (clean + t.link.Overhead() + t.link.Profile().Jitter)
}

// Run executes the transfer starting at from. An attached journal is
// restored first (verified chunks are skipped) and checkpointed as chunks
// verify, so a failed or interrupted run resumes from the last checkpoint
// rather than byte zero.
func (t *Transfer) Run(from sim.Time) (Result, error) {
	spec := t.spec
	j := t.Journal()
	res := Result{
		Name:       spec.Name,
		TotalBytes: spec.TotalBytes,
		ChunkBytes: spec.ChunkBytes,
		Chunks:     t.Chunks(),
		Start:      from,
	}
	res.Skipped = j.Restore()

	avail := make([]sim.Time, spec.Parallel)
	for i := range avail {
		avail[i] = from
	}
	end := from
	var runErr error
	sinceCkpt := 0

chunks:
	for i := 0; i < res.Chunks; i++ {
		if j.Done(i) {
			continue
		}
		off := int64(i) * spec.ChunkBytes
		n := spec.ChunkBytes
		if off+n > spec.TotalBytes {
			n = spec.TotalBytes - off
		}
		s := i % spec.Parallel
		done, err := t.chunk(i, off, n, avail[s], &res)
		if err != nil {
			runErr = fmt.Errorf("netfault: chunk %d/%d: %w", i, res.Chunks, err)
			break chunks
		}
		avail[s] = done
		if done > end {
			end = done
		}
		res.PayloadFNV ^= chunkSum(spec.Name, i) // verified end to end
		j.Mark(i)
		res.Delivered++
		sinceCkpt++
		if sinceCkpt >= journalEvery {
			j.Checkpoint()
			sinceCkpt = 0
		}
		if spec.StopAfter > 0 && res.Delivered >= spec.StopAfter && j.DoneCount() < res.Chunks {
			runErr = ErrInterrupted
			break chunks
		}
	}
	if sinceCkpt > 0 || j.Writes() == 0 {
		j.Checkpoint()
	}
	res.End = end
	res.Completed = j.DoneCount() == res.Chunks
	if runErr != nil {
		res.Err = runErr.Error()
	}
	res.Goodput = sim.Rate(res.PayloadBytes, res.End-res.Start)
	res.BitmapFNV = j.BitmapFNV()
	res.JournalWrites = j.Writes()
	return res, runErr
}

// chunk delivers one chunk through bounded retry with exponential backoff,
// returning its verified-delivery instant. Attribution telescopes exactly:
// every failed attempt's full duration lands in the retry component, every
// backoff and outage stall in recovery, and the successful attempt splits
// into queue (source staging), host-overhead (fixed costs + jitter),
// link-wait (serialization behind other streams), link-xfer (wire time)
// and die-service (far-end store).
func (t *Transfer) chunk(i int, off, n int64, at sim.Time, res *Result) (sim.Time, error) {
	spec := t.spec
	d := t.link
	prof := d.Profile()
	rec := t.rec
	timeout := t.timeout()

	rec.Begin(spec.Kind, off, n, at)
	now := at
	for attempt := 0; attempt < maxAttempts; attempt++ {
		rng := attemptRNG(spec.Seed, i, attempt)
		aStart := now

		// Fabric availability: hold through scheduled outages.
		up, ok := d.Available(now)
		if !ok {
			rec.Abort()
			return 0, ErrNoAvailability
		}
		stall := up - now
		now = up
		res.StallTime += stall

		// Source staging: the chunk's data reaches the link entrance.
		var srcDur sim.Time
		if spec.Source != nil {
			e := spec.Source(now, i, off, n)
			srcDur = e - now
			now = e
		}

		// Fixed costs: link overhead, profile added latency, jitter.
		ovh := d.Overhead()
		if prof.Jitter > 0 {
			ovh += sim.Time(rng.Int63n(int64(prof.Jitter) + 1))
		}
		now += ovh

		if rng.Bool(prof.LossProb) {
			// Vanished in the fabric: burn the ack timeout, retransmit.
			now += timeout
			res.Attempts++
			res.Losses++
			res.Retries++
			res.RetryTime += now - aStart
			rec.Note(attrib.Retry, now-aStart)
			var err error
			now, err = t.backoff(attempt, rng, now, res)
			if err != nil {
				rec.Abort()
				return 0, err
			}
			continue
		}

		// The chunk crosses the wire (and the cap pacer).
		sent := d.Send(now, n)
		wire := sim.DurationForBytes(n, d.EffectiveBps())
		wait := sent - now - wire
		if wait < 0 {
			wire, wait = sent-now, 0
		}
		res.Attempts++
		res.WireBytes += n

		if rng.Bool(prof.CorruptProb) {
			// Arrived damaged: the FNV verification rejects it.
			res.Corruptions++
			res.Retries++
			res.RetryTime += sent - aStart
			rec.Note(attrib.Retry, sent-aStart)
			now = sent
			var err error
			now, err = t.backoff(attempt, rng, now, res)
			if err != nil {
				rec.Abort()
				return 0, err
			}
			continue
		}

		// Verified delivery: far-end store, then commit the anatomy.
		done := sent
		var sinkDur sim.Time
		if spec.Sink != nil {
			e := spec.Sink(done, i, off, n)
			sinkDur = e - done
			done = e
		}
		rec.Note(attrib.Recovery, stall)
		rec.Note(attrib.Queue, srcDur)
		rec.Note(attrib.HostOverhead, ovh)
		rec.Note(attrib.LinkWait, wait)
		rec.Note(attrib.LinkXfer, wire)
		rec.Note(attrib.DieService, sinkDur)
		rec.Commit(done)
		res.PayloadBytes += n
		return done, nil
	}
	rec.Abort()
	return 0, ErrRetriesExhausted
}

// backoff books the exponential inter-attempt delay (with deterministic
// jitter from the attempt's stream) and attributes it to recovery.
func (t *Transfer) backoff(attempt int, rng *sim.RNG, now sim.Time, res *Result) (sim.Time, error) {
	if attempt == maxAttempts-1 {
		return now, ErrRetriesExhausted
	}
	b := baseBackoff << uint(attempt)
	if b > maxBackoff || b <= 0 {
		b = maxBackoff
	}
	b += sim.Time(rng.Int63n(int64(b/2) + 1))
	now += b
	res.BackoffTime += b
	t.rec.Note(attrib.Recovery, b)
	return now, nil
}
