package sim

import "testing"

func TestPeriodicFiresEveryBoundaryInOrder(t *testing.T) {
	var fired []Time
	p := NewPeriodic(10, func(at Time) { fired = append(fired, at) })
	p.Advance(5) // before the first boundary: nothing
	if len(fired) != 0 {
		t.Fatalf("fired early: %v", fired)
	}
	p.Advance(35) // crosses 10, 20, 30 at once
	want := []Time{10, 20, 30}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	p.Advance(35) // same instant again: nothing new
	if len(fired) != 3 {
		t.Fatalf("refired at same instant: %v", fired)
	}
	if p.Last() != 30 {
		t.Fatalf("Last = %v, want 30", p.Last())
	}
}

func TestPeriodicSetIntervalNeverRefiresOldBoundaries(t *testing.T) {
	var fired []Time
	p := NewPeriodic(10, func(at Time) { fired = append(fired, at) })
	p.Advance(40) // 10, 20, 30, 40
	p.SetInterval(25)
	p.Advance(100) // multiples of 25 past 40: 50, 75, 100
	want := []Time{10, 20, 30, 40, 50, 75, 100}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestPeriodicClampsInterval(t *testing.T) {
	n := 0
	p := NewPeriodic(0, func(Time) { n++ })
	if p.interval != 1 {
		t.Fatalf("interval = %v, want clamp to 1", p.interval)
	}
	p.Advance(3)
	if n != 3 {
		t.Fatalf("fired %d times, want 3", n)
	}
}
