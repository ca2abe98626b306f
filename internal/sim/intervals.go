package sim

import "fmt"

// IntervalSet accumulates possibly-overlapping busy intervals and reports
// the total covered time — the "kept busy" union the paper's channel- and
// package-level utilization probes measure. It holds only the spans still
// in flight: the owner calls Fold with a frontier no later booking can start
// before, and every span that ended by then collapses into one scalar, so
// the set's size tracks the work in flight rather than the run length.
type IntervalSet struct {
	folded Time   // covered time of the spans already folded away
	floor  Time   // highest frontier folded at; no span may start before it
	live   []span // disjoint, sorted by start
}

type span struct{ start, end Time }

// Add records a busy interval. Zero- or negative-length intervals are
// ignored. An interval starting before the last fold frontier panics: it
// could overlap folded time, which Covered would then count twice.
func (s *IntervalSet) Add(start, end Time) {
	if end <= start {
		return
	}
	if start < s.floor {
		panic(fmt.Sprintf("sim: interval [%v, %v) starts before the fold frontier %v", start, end, s.floor))
	}
	// Almost every booking lands at the tail: past the last span, or
	// starting inside it.
	n := len(s.live)
	if n == 0 || start > s.live[n-1].end {
		s.live = append(s.live, span{start, end})
		return
	}
	if last := &s.live[n-1]; start >= last.start {
		last.end = MaxTime(last.end, end)
		return
	}
	// Otherwise scan back: live[i:] are the spans ending at or after start,
	// live[i:j] those the new interval touches.
	i := n - 1
	for i > 0 && s.live[i-1].end >= start {
		i--
	}
	j := i
	for j < n && s.live[j].start <= end {
		j++
	}
	if i == j {
		s.live = append(s.live, span{})
		copy(s.live[i+1:], s.live[i:])
		s.live[i] = span{start, end}
		return
	}
	s.live[i] = span{MinTime(start, s.live[i].start), MaxTime(end, s.live[j-1].end)}
	s.live = s.live[:i+1+copy(s.live[i+1:], s.live[j:])]
}

// Fold collapses every span ending at or before frontier into the folded
// total and raises the floor to frontier. The caller guarantees no later
// Add starts before frontier.
func (s *IntervalSet) Fold(frontier Time) {
	k := 0
	for k < len(s.live) && s.live[k].end <= frontier {
		s.folded += s.live[k].end - s.live[k].start
		k++
	}
	if k > 0 {
		s.live = s.live[:copy(s.live, s.live[k:])]
	}
	s.floor = MaxTime(s.floor, frontier)
}

// Covered returns the total length of the union of all intervals.
func (s *IntervalSet) Covered() Time {
	total := s.folded
	for _, sp := range s.live {
		total += sp.end - sp.start
	}
	return total
}

// Utilization returns covered time over the span, clamped to [0, 1].
func (s *IntervalSet) Utilization(spanLen Time) float64 {
	if spanLen <= 0 {
		return 0
	}
	u := float64(s.Covered()) / float64(spanLen)
	if u > 1 {
		u = 1
	}
	return u
}

// Len reports the live (not yet folded) interval count.
func (s *IntervalSet) Len() int { return len(s.live) }
