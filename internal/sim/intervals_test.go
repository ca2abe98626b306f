package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestIntervalSetDisjoint(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(20, 30)
	if got := s.Covered(); got != 20 {
		t.Fatalf("Covered = %v, want 20", got)
	}
}

func TestIntervalSetOverlapMerges(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(5, 15)
	if got := s.Covered(); got != 15 {
		t.Fatalf("Covered = %v, want 15", got)
	}
}

func TestIntervalSetContainment(t *testing.T) {
	var s IntervalSet
	s.Add(0, 100)
	s.Add(10, 20)
	if got := s.Covered(); got != 100 {
		t.Fatalf("Covered = %v, want 100", got)
	}
}

func TestIntervalSetOutOfOrder(t *testing.T) {
	var s IntervalSet
	s.Add(50, 60)
	s.Add(0, 10)
	s.Add(55, 70)
	s.Add(5, 52)
	if got := s.Covered(); got != 70 {
		t.Fatalf("Covered = %v, want 70", got)
	}
}

func TestIntervalSetIgnoresEmpty(t *testing.T) {
	var s IntervalSet
	s.Add(10, 10)
	s.Add(10, 5)
	if s.Covered() != 0 || s.Len() != 0 {
		t.Fatal("empty/negative intervals must be ignored")
	}
}

func TestIntervalSetAddAfterCovered(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	if s.Covered() != 10 {
		t.Fatal("setup")
	}
	// Covered must not disturb the set: later adds still append and
	// overlap.
	s.Add(20, 30)
	s.Add(25, 40)
	s.Add(5, 6)
	if got := s.Covered(); got != 30 {
		t.Fatalf("Covered = %v, want 30", got)
	}
}

func TestIntervalSetUtilization(t *testing.T) {
	var s IntervalSet
	s.Add(0, 25)
	if got := s.Utilization(100); got != 0.25 {
		t.Fatalf("Utilization = %v, want 0.25", got)
	}
	if got := s.Utilization(0); got != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", got)
	}
	if got := s.Utilization(10); got != 1 {
		t.Fatalf("Utilization must clamp at 1, got %v", got)
	}
}

func TestIntervalSetAddBelowFloorPanics(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(20, 30)
	s.Fold(25)
	if got := s.Covered(); got != 20 || s.Len() != 1 {
		t.Fatalf("after Fold(25): Covered = %v, Len = %d, want 20, 1", got, s.Len())
	}
	s.Add(25, 26) // at the frontier is fine
	defer func() {
		if recover() == nil {
			t.Fatal("Add starting before the fold frontier must panic")
		}
	}()
	s.Add(24, 40)
}

// Property: Covered matches a brute-force union over arbitrary interval
// sequences.
func TestIntervalSetMatchesBruteForceProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var set IntervalSet
		var ivs [][2]Time
		for _, r := range raw {
			start := Time(r % 199)
			end := start + Time(r%31)
			set.Add(start, end)
			if end > start {
				ivs = append(ivs, [2]Time{start, end})
			}
		}
		return set.Covered() == bruteCovered(ivs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// bruteCovered is the union length of ivs by merging them in start order.
func bruteCovered(ivs [][2]Time) Time {
	ivs = append([][2]Time(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var want Time
	var cur [2]Time
	for i, v := range ivs {
		if i > 0 && v[0] <= cur[1] {
			cur[1] = MaxTime(cur[1], v[1])
			continue
		}
		if i > 0 {
			want += cur[1] - cur[0]
		}
		cur = v
	}
	if len(ivs) > 0 {
		want += cur[1] - cur[0]
	}
	return want
}

// Property: folding behind a rising frontier never changes the union. Spans
// start anywhere at or above the current frontier (so they may overlap live
// spans, or land before them), the frontier rises between adds, and Covered
// matches the brute-force union after every step.
func TestIntervalSetFoldMatchesBruteForceProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var set IntervalSet
		var ivs [][2]Time
		var frontier Time
		for _, r := range raw {
			start := frontier + Time(r%53)
			end := start + Time(r%29)
			set.Add(start, end)
			if end > start {
				ivs = append(ivs, [2]Time{start, end})
			}
			if r%3 == 0 {
				frontier += Time(r % 11)
				set.Fold(frontier)
			}
			if set.Covered() != bruteCovered(ivs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
