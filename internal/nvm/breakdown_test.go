package nvm

import (
	"math"
	"testing"
)

func TestBreakdownPercentagesSumToOne(t *testing.T) {
	b := Breakdown{NonOverlappedDMA: 10, FlashBus: 20, ChannelBus: 30, CellContention: 5, ChannelContention: 15, CellActivation: 20}
	p := b.Percentages()
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("percentages sum to %v", sum)
	}
	if p[0] != 0.1 || p[5] != 0.2 {
		t.Fatalf("percentages wrong: %v", p)
	}
}

func TestBreakdownPercentagesZero(t *testing.T) {
	var b Breakdown
	if p := b.Percentages(); p != [6]float64{} {
		t.Fatalf("zero breakdown must yield zeros, got %v", p)
	}
}

func TestBreakdownLabelsCount(t *testing.T) {
	if len(BreakdownLabels) != 6 {
		t.Fatalf("six states expected, got %d labels", len(BreakdownLabels))
	}
}

func TestPALString(t *testing.T) {
	if PAL1.String() != "PAL1" || PAL4.String() != "PAL4" {
		t.Fatal("PAL names wrong")
	}
	if PAL(0).String() != "PAL?" || PAL(9).String() != "PAL?" {
		t.Fatal("out-of-range PAL must render PAL?")
	}
}

func TestPALHistogram(t *testing.T) {
	h := PALHistogram{1, 0, 0, 2}
	if h.Total() != 3 {
		t.Fatalf("Total = %d, want 3", h.Total())
	}
	f := h.Fractions()
	if f[0] != 1.0/3 || f[3] != 2.0/3 {
		t.Fatalf("Fractions = %v", f)
	}
}

func TestPALHistogramEmpty(t *testing.T) {
	var h PALHistogram
	if f := h.Fractions(); f != [4]float64{} {
		t.Fatalf("empty histogram fractions = %v", f)
	}
}
