package timeseries

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"oocnvm/internal/sim"
)

func TestGaugeSamplesAtBoundaries(t *testing.T) {
	s := NewSampler(10, 8)
	depth := 0.0
	s.AddGauge("q", func(sim.Time) float64 { return depth })
	depth = 3
	s.Advance(10)
	depth = 5
	s.Advance(25) // boundary 20 only
	d := s.Dump()
	if len(d.Series) != 1 || len(d.Series[0].Points) != 2 {
		t.Fatalf("dump = %+v", d)
	}
	if d.Series[0].Points[0] != (Point{10, 3}) || d.Series[0].Points[1] != (Point{20, 5}) {
		t.Fatalf("points = %+v", d.Series[0].Points)
	}
}

func TestDeltaAndRate(t *testing.T) {
	s := NewSampler(sim.Microsecond, 8)
	total := 0.0
	s.AddDelta("ops", func(sim.Time) float64 { return total })
	s.AddRate("bps", func(sim.Time) float64 { return total })
	total = 4
	s.Advance(sim.Microsecond)
	total = 10
	s.Advance(2 * sim.Microsecond)
	d := s.Dump()
	var ops, bps Series
	for _, sr := range d.Series {
		switch sr.Name {
		case "ops":
			ops = sr
		case "bps":
			bps = sr
		}
	}
	if ops.Points[0].Value != 4 || ops.Points[1].Value != 6 {
		t.Fatalf("delta points = %+v", ops.Points)
	}
	// 4 units in 1 us = 4e6 per second.
	if math.Abs(bps.Points[0].Value-4e6) > 1 {
		t.Fatalf("rate = %v, want 4e6", bps.Points[0].Value)
	}
}

func TestFractionClampsAndNormalizes(t *testing.T) {
	s := NewSampler(100, 8)
	busy := 0.0
	s.AddFraction("util", 2, func(sim.Time) float64 { return busy })
	busy = 100 // 100 ps busy over 2 resources x 100 ps = 0.5
	s.Advance(100)
	busy = 1000 // ahead-of-time booking: delta 900 > 2x100, clamps to 1
	s.Advance(200)
	p := s.Dump().Series[0].Points
	if p[0].Value != 0.5 {
		t.Fatalf("fraction = %v, want 0.5", p[0].Value)
	}
	if p[1].Value != 1 {
		t.Fatalf("fraction = %v, want clamp to 1", p[1].Value)
	}
}

func TestRatioHandlesZeroDenominator(t *testing.T) {
	s := NewSampler(10, 8)
	hits, total := 0.0, 0.0
	s.AddRatio("hit_rate", func(sim.Time) float64 { return hits },
		func(sim.Time) float64 { return total })
	s.Advance(10) // no accesses yet
	hits, total = 3, 4
	s.Advance(20)
	p := s.Dump().Series[0].Points
	if p[0].Value != 0 {
		t.Fatalf("zero-denominator ratio = %v, want 0", p[0].Value)
	}
	if p[1].Value != 0.75 {
		t.Fatalf("ratio = %v, want 0.75", p[1].Value)
	}
}

func TestDownsampleHalvesAndDoublesInterval(t *testing.T) {
	s := NewSampler(10, 4)
	total := 0.0
	s.AddDelta("d", func(sim.Time) float64 { return total })
	s.AddGauge("g", func(sim.Time) float64 { return total })
	for i := 1; i <= 4; i++ {
		total = float64(i * 10) // +10 per boundary; gauge reads 10,20,30,40
		s.Advance(sim.Time(i * 10))
	}
	// Hitting capacity=4 downsamples to 2 samples at interval 20.
	if s.Len() != 2 || s.Interval() != 20 {
		t.Fatalf("len=%d interval=%d, want 2 and 20", s.Len(), s.Interval())
	}
	d := s.Dump()
	if d.IntervalPs != 20 {
		t.Fatalf("IntervalPs = %d", d.IntervalPs)
	}
	for _, sr := range d.Series {
		switch sr.Name {
		case "d": // deltas sum: (10+10), (10+10)
			if sr.Points[0].Value != 20 || sr.Points[1].Value != 20 {
				t.Fatalf("delta merge = %+v", sr.Points)
			}
		case "g": // gauges average: (10+20)/2, (30+40)/2
			if sr.Points[0].Value != 15 || sr.Points[1].Value != 35 {
				t.Fatalf("gauge merge = %+v", sr.Points)
			}
		}
		if sr.Points[0].TPs != 20 || sr.Points[1].TPs != 40 {
			t.Fatalf("timestamps = %+v", sr.Points)
		}
	}
	// Further sampling continues on the doubled interval without refiring
	// old boundaries.
	total = 100
	s.Advance(60)
	if s.Len() != 3 {
		t.Fatalf("len = %d after one more boundary, want 3", s.Len())
	}
}

func TestLateRegistrationBackfillsAndBaselines(t *testing.T) {
	s := NewSampler(10, 8)
	s.AddGauge("early", func(sim.Time) float64 { return 1 })
	s.Advance(20) // two samples before the late series exists
	total := 50.0
	s.AddDelta("late", func(sim.Time) float64 { return total })
	total = 57
	s.Advance(30)
	for _, sr := range s.Dump().Series {
		if sr.Name != "late" {
			continue
		}
		if len(sr.Points) != 3 {
			t.Fatalf("late series points = %+v", sr.Points)
		}
		if sr.Points[0].Value != 0 || sr.Points[1].Value != 0 {
			t.Fatalf("backfill not zero: %+v", sr.Points)
		}
		// Baseline at registration (50), not zero: first live delta is 7.
		if sr.Points[2].Value != 7 {
			t.Fatalf("late first delta = %v, want 7", sr.Points[2].Value)
		}
	}
}

func TestDuplicateRegistrationKeepsFirst(t *testing.T) {
	s := NewSampler(10, 8)
	s.AddGauge("x", func(sim.Time) float64 { return 1 })
	s.AddGauge("x", func(sim.Time) float64 { return 2 })
	s.Advance(10)
	d := s.Dump()
	if len(d.Series) != 1 {
		t.Fatalf("duplicate name produced %d series", len(d.Series))
	}
	if d.Series[0].Points[0].Value != 1 {
		t.Fatalf("second registration won: %+v", d.Series[0].Points)
	}
}

func TestWriteCSVDeterministic(t *testing.T) {
	run := func() string {
		s := NewSampler(10, 8)
		total := 0.0
		s.AddDelta("b.ops", func(sim.Time) float64 { return total })
		s.AddGauge("a.depth", func(sim.Time) float64 { return total / 3 })
		for i := 1; i <= 5; i++ {
			total = float64(i * i)
			s.Advance(sim.Time(i * 10))
		}
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("CSV not byte-identical:\n%s\n---\n%s", a, b)
	}
	if !strings.HasPrefix(a, "series,kind,t_ps,value\n") {
		t.Fatalf("missing header: %q", a)
	}
	// Sorted by series name: every a.depth row before any b.ops row.
	if strings.Index(a, "a.depth") > strings.Index(a, "b.ops") {
		t.Fatalf("rows not sorted by series:\n%s", a)
	}
}
