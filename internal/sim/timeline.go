package sim

// Timeline models an exclusive resource (a channel bus, a die, a host link)
// as a single availability horizon. Acquire serializes work on the resource
// in call order, which matches the in-order micro-operation dispatch of the
// controllers modeled here, and accumulates total busy time so utilization
// can be computed as busy/span after a run.
type Timeline struct {
	free Time // the instant the resource next becomes idle
	busy Time // total time the resource has spent occupied
}

// Acquire books the resource for dur starting no earlier than at. It returns
// the actual start time (= max(at, current horizon)) and the completion time.
func (tl *Timeline) Acquire(at, dur Time) (start, end Time) {
	start = MaxTime(at, tl.free)
	end = start + dur
	tl.free = end
	tl.busy += dur
	return start, end
}

// FreeAt reports when the resource next becomes idle.
func (tl *Timeline) FreeAt() Time { return tl.free }

// Busy reports the accumulated occupied time.
func (tl *Timeline) Busy() Time { return tl.busy }

// Utilization returns busy time as a fraction of the given span, clamped to
// [0, 1]. A zero span yields zero.
func (tl *Timeline) Utilization(span Time) float64 {
	if span <= 0 {
		return 0
	}
	u := float64(tl.busy) / float64(span)
	if u > 1 {
		u = 1
	}
	return u
}
