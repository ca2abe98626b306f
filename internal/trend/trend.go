// Package trend reproduces Figure 1: the per-channel bandwidth of
// high-performance networks versus NVM storage solutions over time, showing
// network bandwidth growing at a stagnant rate compared to emerging NVM.
// It carries the historical data points of the figure and fits exponential
// growth models to project the crossover.
package trend

import (
	"fmt"
	"math"
	"sort"
)

// Category separates the figure's series.
type Category int

// Series of Figure 1.
const (
	InfiniBand Category = iota
	FibreChannel
	FlashSSD
	OtherNVM // RAM-SSD, PCM prototypes, projections
)

// String names the category.
func (c Category) String() string {
	switch c {
	case InfiniBand:
		return "InfiniBand"
	case FibreChannel:
		return "FibreChannel"
	case FlashSSD:
		return "Flash-SSD"
	case OtherNVM:
		return "NonFlash-NVM"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Point is one device or link generation.
type Point struct {
	Year     float64
	GBps     float64 // bandwidth per channel, GB/s
	Label    string
	Category Category
}

// Points returns the Figure 1 dataset: named products where the figure
// names them, generational link speeds for the networks.
func Points() []Point {
	return []Point{
		// High-performance networks (per-link data rate, GB/s).
		{1999, 0.25, "SDR 1X", InfiniBand},
		{2003, 0.5, "SDR 4X eff", InfiniBand},
		{2005, 1.0, "DDR 4X", InfiniBand},
		{2008, 2.0, "QDR 4X", InfiniBand},
		{2011, 3.25, "FDR 4X", InfiniBand},
		{2014, 4.0, "QDR->EDR path", InfiniBand},
		{1998, 0.1, "FC 1G", FibreChannel},
		{2001, 0.2, "FC 2G", FibreChannel},
		{2004, 0.4, "FC 4G", FibreChannel},
		{2008, 0.8, "FC 8G", FibreChannel},
		{2011, 1.6, "FC 16G", FibreChannel},
		// Flash SSDs (per-device bandwidth).
		{1998, 0.016, "Winchester", FlashSSD},
		{2001, 0.03, "A25FB", FlashSSD},
		{2004, 0.06, "ST-Zeus", FlashSSD},
		{2007, 0.25, "Intel-X25", FlashSSD},
		{2008, 0.5, "SF-1000", FlashSSD},
		{2009, 0.75, "ioDrive", FlashSSD},
		{2011, 1.5, "Z-Drive R4", FlashSSD},
		{2012, 3.0, "ioDrive2", FlashSSD},
		{2012, 6.0, "ioDrive Octal", FlashSSD},
		{2014, 8.0, "Future PCIe SSD (expectation)", FlashSSD},
		// Non-flash NVM.
		{2006, 1.0, "Silicon Disk II (RAM-SSD)", OtherNVM},
		{2011, 1.2, "Onyx PCM Prototype", OtherNVM},
		{2013, 4.0, "NonFlash-NVM SSD", OtherNVM},
		{2016, 16.0, "Future Multi-channel PCM-SSD (expectation)", OtherNVM},
	}
}

// Fit is an exponential growth model bw = a·2^((year-year0)/doubling).
type Fit struct {
	Category    Category
	Year0       float64
	GBpsAtYear0 float64
	DoublingYrs float64
	Points      int
}

// FitCategory least-squares fits log2(bandwidth) against year for one
// category's points.
func FitCategory(points []Point, c Category) (Fit, error) {
	var xs, ys []float64
	for _, p := range points {
		if p.Category == c {
			xs = append(xs, p.Year)
			ys = append(ys, math.Log2(p.GBps))
		}
	}
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("trend: category %v has %d points; need at least 2", c, len(xs))
	}
	// Linear regression on (year, log2 bw).
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	intercept := (sy - slope*sx) / n
	year0 := xs[0]
	return Fit{
		Category:    c,
		Year0:       year0,
		GBpsAtYear0: math.Exp2(intercept + slope*year0),
		DoublingYrs: 1 / slope,
		Points:      len(xs),
	}, nil
}

// Crossover returns the year two growth models intersect, or an error when
// they diverge.
func Crossover(a, b Fit) (float64, error) {
	// Solve a(y) == b(y) for the two exponential models in log2 space.
	sa := 1 / a.DoublingYrs
	sb := 1 / b.DoublingYrs
	if sa == sb {
		return 0, fmt.Errorf("trend: equal growth rates never cross")
	}
	ia := math.Log2(a.GBpsAtYear0) - sa*a.Year0
	ib := math.Log2(b.GBpsAtYear0) - sb*b.Year0
	return (ib - ia) / (sa - sb), nil
}

// SortedByYear returns the points of one category in time order.
func SortedByYear(points []Point, c Category) []Point {
	var out []Point
	for _, p := range points {
		if p.Category == c {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Year < out[j].Year })
	return out
}
