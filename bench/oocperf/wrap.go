package main

import (
	"fmt"
	"time"

	"oocnvm/internal/ftl"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs"
	"oocnvm/internal/sim"
	"oocnvm/internal/ssd"
)

// callTimer records the host time of every translator call it wraps.
type callTimer struct {
	durs  []int64 // per-call nanoseconds, all cells
	pages int64   // page ops the calls returned
	// lastStart and lastEnd bound the most recent call, so the caller can
	// nest a translate span inside its ssd.submit span.
	lastStart, lastEnd time.Time
}

// reserve grows durs for n more calls, so recording allocates nothing while
// a replay is being timed.
func (t *callTimer) reserve(n int) {
	if free := cap(t.durs) - len(t.durs); free < n {
		grown := make([]int64, len(t.durs), len(t.durs)+n)
		copy(grown, t.durs)
		t.durs = grown
	}
}

func (t *callTimer) done(start time.Time, ops []nvm.PageOp) []nvm.PageOp {
	end := time.Now()
	t.lastStart, t.lastEnd = start, end
	t.durs = append(t.durs, int64(end.Sub(start)))
	t.pages += int64(len(ops))
	return ops
}

// The translator wrappers embed the concrete translator, so every optional
// interface ssd.New and nvm probe for (OpPooler, BlockRetirer, MediaTap,
// SetProbe, RegisterSeries) reaches it unchanged; only the three
// translation calls are timed.

// timedFTL times the calls into an FTL.
type timedFTL struct {
	*ftl.FTL
	t *callTimer
}

func (w timedFTL) Read(offset, size int64) []nvm.PageOp {
	start := time.Now()
	return w.t.done(start, w.FTL.Read(offset, size))
}

func (w timedFTL) Write(offset, size int64) []nvm.PageOp {
	start := time.Now()
	return w.t.done(start, w.FTL.Write(offset, size))
}

func (w timedFTL) Erase(offset, size int64) []nvm.PageOp {
	start := time.Now()
	return w.t.done(start, w.FTL.Erase(offset, size))
}

// timedDirect times the calls into UFS's Direct translation.
type timedDirect struct {
	*ssd.Direct
	t *callTimer
}

func (w timedDirect) Read(offset, size int64) []nvm.PageOp {
	start := time.Now()
	return w.t.done(start, w.Direct.Read(offset, size))
}

func (w timedDirect) Write(offset, size int64) []nvm.PageOp {
	start := time.Now()
	return w.t.done(start, w.Direct.Write(offset, size))
}

func (w timedDirect) Erase(offset, size int64) []nvm.PageOp {
	start := time.Now()
	return w.t.done(start, w.Direct.Erase(offset, size))
}

// timeTranslator wraps one of the repository's two translators.
func timeTranslator(tr ssd.Translator, t *callTimer) (ssd.Translator, error) {
	switch x := tr.(type) {
	case *ftl.FTL:
		return timedFTL{x, t}, nil
	case *ssd.Direct:
		return timedDirect{x, t}, nil
	}
	return nil, fmt.Errorf("no timing wrapper for translator %T", tr)
}

// maxRecordedTransfers bounds how many link transfers of one cell are kept
// for the replay that prices them.
const maxRecordedTransfers = 1 << 20

// transferLog counts link transfers and keeps the first ones for replay.
type transferLog struct {
	n     int64
	at    []sim.Time
	bytes []int64
}

func newTransferLog(capacity int) *transferLog {
	return &transferLog{at: make([]sim.Time, 0, capacity), bytes: make([]int64, 0, capacity)}
}

func (l *transferLog) reset() {
	l.n, l.at, l.bytes = 0, l.at[:0], l.bytes[:0]
}

// busyLink is the link surface the device uses: transfers, plus the
// occupancy series and probe wiring it probes for. Both of the
// repository's links (interconnect.Line and interconnect.Chain) have it.
type busyLink interface {
	nvm.Link
	Busy() sim.Time
	SetProbe(obs.Probe)
}

// recordingLink logs the transfers booked on a link. Timing each transfer
// would cost more than the transfer; the log is replayed and timed in one
// batch instead.
type recordingLink struct {
	busyLink
	log *transferLog
}

func (l recordingLink) Transfer(at sim.Time, n int64) sim.Time {
	l.log.n++
	if len(l.log.at) < cap(l.log.at) {
		l.log.at = append(l.log.at, at)
		l.log.bytes = append(l.log.bytes, n)
	}
	return l.busyLink.Transfer(at, n)
}

func recordLink(link nvm.Link, log *transferLog) (nvm.Link, error) {
	bl, ok := link.(busyLink)
	if !ok {
		return nil, fmt.Errorf("link %T lacks Busy or SetProbe", link)
	}
	return recordingLink{bl, log}, nil
}

// priceTransfers replays the logged transfers into a fresh link and returns
// the host time they took.
func priceTransfers(fresh nvm.Link, log *transferLog) time.Duration {
	start := time.Now()
	for i, at := range log.at {
		fresh.Transfer(at, log.bytes[i])
	}
	return time.Since(start)
}
