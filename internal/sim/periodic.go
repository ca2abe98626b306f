package sim

// Periodic fires a callback at every multiple of a fixed simulated-time
// interval. It is the clock hook behind time-resolved telemetry: a component
// that owns a simulated clock calls Advance as the clock moves, and the
// callback runs once per crossed boundary, in order, with the boundary
// instant. Nothing here reads the wall clock, so two identical runs fire the
// callback at identical instants.
//
// Periodic is not safe for concurrent use; it belongs to whichever component
// owns the clock that drives it.
type Periodic struct {
	interval Time
	next     Time
	last     Time // most recently fired boundary
	fn       func(Time)
}

// NewPeriodic returns a hook firing fn at t = interval, 2*interval, ...
// Intervals below one picosecond are clamped to one.
func NewPeriodic(interval Time, fn func(Time)) *Periodic {
	if interval < 1 {
		interval = 1
	}
	return &Periodic{interval: interval, next: interval, fn: fn}
}

// Last reports the most recently fired boundary (zero before the first).
func (p *Periodic) Last() Time { return p.last }

// SetInterval rebases the hook onto a new interval: the next firing is the
// smallest multiple of the new interval past the last fired boundary, so a
// consumer that coarsens its resolution (telemetry downsampling) never sees
// a boundary out of order or twice.
func (p *Periodic) SetInterval(interval Time) {
	if interval < 1 {
		interval = 1
	}
	p.interval = interval
	p.next = (p.last/interval + 1) * interval
}

// Advance fires the callback for every boundary at or before now. A now
// before the next boundary is a no-op, so callers may invoke it on every
// clock movement for free in the common case.
func (p *Periodic) Advance(now Time) {
	for p.next <= now {
		p.last = p.next
		p.next += p.interval
		p.fn(p.last)
	}
}
