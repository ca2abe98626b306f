package ssd

import (
	"oocnvm/internal/nvm"
	"oocnvm/internal/sim"
	"oocnvm/internal/trace"
)

// PAQ implements physically addressed queueing, the scheduling optimization
// of the NANDFlashSim line of work the paper applies "to refine our findings
// for future NVM devices" (§4.1, citing ISCA'12): instead of dispatching
// host requests strictly in arrival order, the controller inspects the
// physical resources each pending request needs and issues the one whose
// target dies become free earliest, so independent requests overtake
// conflicted ones.
//
// PAQ wraps an SSD and buffers up to Depth requests; Flush drains the
// buffer. Sync requests act as barriers exactly as in the FIFO path.
type PAQ struct {
	ssd     *SSD
	depth   int
	pending []trace.BlockOp
	locs    []nvm.Location // cost's scratch
}

// NewPAQ wraps the SSD with a reordering window of the given depth.
// Depth <= 1 degenerates to FIFO.
func NewPAQ(s *SSD, depth int) *PAQ {
	if depth < 1 {
		depth = 1
	}
	return &PAQ{ssd: s, depth: depth}
}

// Submit buffers one request, dispatching the best-scheduled pending request
// once the window is full. Sync requests flush the window first and
// dispatch immediately (they are barriers).
func (q *PAQ) Submit(op trace.BlockOp) {
	if op.Sync {
		q.Flush()
		q.ssd.Submit(op)
		return
	}
	q.pending = append(q.pending, op)
	if len(q.pending) >= q.depth {
		q.dispatchBest()
	}
}

// Flush dispatches everything still pending, best-first.
func (q *PAQ) Flush() {
	for len(q.pending) > 0 {
		q.dispatchBest()
	}
}

// Replay drives a whole trace through the reordering window.
func (q *PAQ) Replay(ops []trace.BlockOp) Result {
	for _, op := range ops {
		q.Submit(op)
	}
	return q.Finish()
}

// Finish flushes and snapshots results.
func (q *PAQ) Finish() Result {
	q.Flush()
	return q.ssd.Finish()
}

// dispatchBest removes and submits the pending request whose physical
// targets are free earliest.
func (q *PAQ) dispatchBest() {
	best, bestCost := 0, sim.Time(1<<62)
	for i, op := range q.pending {
		c := q.cost(op)
		if c < bestCost {
			best, bestCost = i, c
		}
	}
	op := q.pending[best]
	q.pending = append(q.pending[:best], q.pending[best+1:]...)
	q.ssd.Submit(op)
}

// cost estimates when the request's dies become available: the maximum
// busy-until horizon over the dies its first pages land on. Sampling the
// leading pages is enough — they decide when the request can begin. The
// probe uses the read mapping for every verb (FTL writes allocate log
// pages; probing them would mutate the map); log-appended writes have no
// positional conflict anyway. Translator.Locations gives that mapping
// without a read's side effects, so a probe counts as no map lookup.
func (q *PAQ) cost(op trace.BlockOp) sim.Time {
	q.locs = q.ssd.trans.Locations(op.Offset, minInt64(maxInt64(op.Size, 1), 8*q.ssd.trans.PageSize()), q.locs[:0])
	var worst sim.Time
	for _, l := range q.locs {
		if f := q.ssd.Dev.DieFreeAt(l.Channel, l.Die); f > worst {
			worst = f
		}
	}
	return worst
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
