package trend

import (
	"math"
	"testing"
)

func TestPointsCoverAllCategories(t *testing.T) {
	pts := Points()
	counts := map[Category]int{}
	for _, p := range pts {
		counts[p.Category]++
		if p.GBps <= 0 || p.Year < 1990 || p.Year > 2020 {
			t.Errorf("implausible point %+v", p)
		}
	}
	for _, c := range []Category{InfiniBand, FibreChannel, FlashSSD, OtherNVM} {
		if counts[c] < 2 {
			t.Errorf("category %v has %d points; need >= 2 for a fit", c, counts[c])
		}
	}
}

func TestNamedDevicesPresent(t *testing.T) {
	// Figure 1 names these products; the dataset must carry them.
	want := []string{"ioDrive Octal", "Z-Drive R4", "Intel-X25", "Onyx PCM Prototype",
		"Silicon Disk II (RAM-SSD)", "Future Multi-channel PCM-SSD (expectation)"}
	have := map[string]bool{}
	for _, p := range Points() {
		have[p.Label] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("missing Figure 1 device %q", w)
		}
	}
}

func TestFlashGrowsFasterThanNetworks(t *testing.T) {
	// The paper's core trend claim: NVM bandwidth growth outpaces
	// point-to-point networks.
	pts := Points()
	flash, err := FitCategory(pts, FlashSSD)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := FitCategory(pts, InfiniBand)
	if err != nil {
		t.Fatal(err)
	}
	if flash.DoublingYrs <= 0 || ib.DoublingYrs <= 0 {
		t.Fatalf("non-positive doubling times: flash %v, IB %v", flash.DoublingYrs, ib.DoublingYrs)
	}
	if flash.DoublingYrs >= ib.DoublingYrs {
		t.Fatalf("flash doubles every %.1f yrs, IB every %.1f: trend inverted",
			flash.DoublingYrs, ib.DoublingYrs)
	}
}

func TestCrossoverInPaperEra(t *testing.T) {
	pts := Points()
	flash, _ := FitCategory(pts, FlashSSD)
	ib, _ := FitCategory(pts, InfiniBand)
	year, err := Crossover(ib, flash)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1 shows SSDs overtaking network links around 2011-2013.
	if year < 2008 || year > 2015 {
		t.Fatalf("crossover at %.1f, want within the paper's era", year)
	}
}

func TestFitEvaluatesThroughItsPoints(t *testing.T) {
	pts := Points()
	fit, err := FitCategory(pts, FibreChannel)
	if err != nil {
		t.Fatal(err)
	}
	// The least-squares fit should pass within a factor of ~2 of each point
	// (FC generations are very regular).
	for _, p := range SortedByYear(pts, FibreChannel) {
		est := fit.At(p.Year)
		if est < p.GBps/2 || est > p.GBps*2 {
			t.Errorf("fit at %.0f = %.3f, point %.3f", p.Year, est, p.GBps)
		}
	}
}

func TestFitCategoryRequiresPoints(t *testing.T) {
	if _, err := FitCategory(nil, FlashSSD); err == nil {
		t.Fatal("fit over no points accepted")
	}
}

func TestCrossoverDegenerateCase(t *testing.T) {
	a := Fit{Year0: 2000, GBpsAtYear0: 1, DoublingYrs: 2}
	b := Fit{Year0: 2000, GBpsAtYear0: 2, DoublingYrs: 2}
	if _, err := Crossover(a, b); err == nil {
		t.Fatal("parallel growth lines crossed")
	}
}

func TestSortedByYear(t *testing.T) {
	pts := SortedByYear(Points(), FlashSSD)
	for i := 1; i < len(pts); i++ {
		if pts[i].Year < pts[i-1].Year {
			t.Fatal("not sorted")
		}
		if pts[i].Category != FlashSSD {
			t.Fatal("category filter leaked")
		}
	}
}

func TestCategoryString(t *testing.T) {
	if InfiniBand.String() != "InfiniBand" || Category(99).String() != "Category(99)" {
		t.Fatal("category names wrong")
	}
}

// At evaluates the model at a year.
func (f Fit) At(year float64) float64 {
	return f.GBpsAtYear0 * math.Exp2((year-f.Year0)/f.DoublingYrs)
}
