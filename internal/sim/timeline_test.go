package sim

import (
	"testing"
	"testing/quick"
)

func TestTimelineSerializes(t *testing.T) {
	var tl Timeline
	s1, e1 := tl.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first acquire = [%v,%v), want [0,10)", s1, e1)
	}
	// A second acquisition wanting t=5 must wait until 10.
	s2, e2 := tl.Acquire(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second acquire = [%v,%v), want [10,20)", s2, e2)
	}
	// An acquisition after the horizon starts on time.
	s3, e3 := tl.Acquire(100, 5)
	if s3 != 100 || e3 != 105 {
		t.Fatalf("third acquire = [%v,%v), want [100,105)", s3, e3)
	}
}

func TestTimelineBusyAccounting(t *testing.T) {
	var tl Timeline
	tl.Acquire(0, 10)
	tl.Acquire(50, 20)
	if tl.Busy() != 30 {
		t.Fatalf("Busy = %v, want 30", tl.Busy())
	}
	if got := tl.Utilization(100); got != 0.3 {
		t.Fatalf("Utilization(100) = %v, want 0.3", got)
	}
}

func TestTimelineUtilizationClamps(t *testing.T) {
	var tl Timeline
	tl.Acquire(0, 100)
	if got := tl.Utilization(50); got != 1 {
		t.Fatalf("Utilization must clamp to 1, got %v", got)
	}
	if got := tl.Utilization(0); got != 0 {
		t.Fatalf("Utilization of zero span must be 0, got %v", got)
	}
}

// Property: acquisitions never overlap and starts never precede requests.
func TestTimelineNoOverlapProperty(t *testing.T) {
	f := func(reqs []uint16) bool {
		var tl Timeline
		var lastEnd Time
		for i, r := range reqs {
			at := Time(r % 997)
			dur := Time(r%13 + 1)
			s, e := tl.Acquire(at, dur)
			if s < at || e != s+dur {
				return false
			}
			if i > 0 && s < lastEnd {
				return false // overlap with previous booking
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: total busy time equals the sum of requested durations.
func TestTimelineBusySumProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		var tl Timeline
		var want Time
		for _, d := range durs {
			dur := Time(d) + 1
			tl.Acquire(0, dur)
			want += dur
		}
		return tl.Busy() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
