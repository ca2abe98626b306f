// Package report renders one experiment run as a single self-contained HTML
// file: inline SVG timelines for every sampled series, the per-stage latency
// table from the run's histograms, the run configuration, and the fault
// summary. No external assets, no scripts, no wall-clock timestamps — the
// bytes are a pure function of the run, so same-seed runs produce identical
// reports.
package report

import (
	"fmt"
	"html"
	"io"
	"strings"
	"time"

	"oocnvm/internal/obs"
	"oocnvm/internal/obs/attrib"
	"oocnvm/internal/obs/hostperf"
	"oocnvm/internal/obs/timeseries"
	"oocnvm/internal/sim"
)

// RunInfo carries the non-metric context of a run into the report.
type RunInfo struct {
	// Title heads the report ("replay trace.bin · CNL-EXT4 · TLC").
	Title string
	// Params lists the run configuration as ordered name/value pairs.
	Params [][2]string
	// FaultSummary is the preformatted reliability summary, empty when the
	// run injected no faults.
	FaultSummary string
	// Attrib, when set, adds the latency-anatomy section: the per-component
	// breakdown table and the slow-request waterfall.
	Attrib *attrib.Summary
	// Host, when set, adds the host-performance section: the per-phase
	// host-cost table of the simulator process itself. Reports of runs
	// without -hostperf carry a nil Host and stay byte-identical to
	// pre-hostperf reports.
	Host *hostperf.Summary
}

// chart geometry (SVG user units).
const (
	chartW  = 720
	chartH  = 150
	plotX0  = 10
	plotX1  = 650
	plotY0  = 14
	plotY1  = 118
	labelX  = 658 // direct last-value label anchor
	xLabelY = 140
)

// WriteHTML renders the report. snap supplies the latency tables and
// counter/gauge sections; dump supplies the timelines. Either may be empty.
func WriteHTML(w io.Writer, info RunInfo, snap obs.Snapshot, dump timeseries.Dump) error {
	var b strings.Builder
	b.Grow(1 << 16)
	writeHead(&b, info.Title)
	writeHeader(&b, info, dump)
	writeTimelines(&b, dump)
	writeSeriesSummary(&b, dump)
	writeAttrib(&b, info.Attrib)
	writeLatencyTable(&b, snap)
	writeCounters(&b, snap)
	writeHostPerf(&b, info.Host)
	if info.FaultSummary != "" {
		fmt.Fprintf(&b, "<section><h2>Fault summary</h2><pre>%s</pre></section>\n",
			html.EscapeString(info.FaultSummary))
	}
	b.WriteString("</main></body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHead emits the document head with the palette as CSS custom
// properties, declared for light mode with dark values under both the
// prefers-color-scheme media query and an explicit data-theme override.
func writeHead(b *strings.Builder, title string) {
	fmt.Fprintf(b, `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>%s</title>
<style>
.viz-root {
  color-scheme: light;
  --page:           #f9f9f7;
  --surface-1:      #fcfcfb;
  --text-primary:   #0b0b0b;
  --text-secondary: #52514e;
  --text-muted:     #898781;
  --grid:           #e1e0d9;
  --baseline:       #c3c2b7;
  --border:         rgba(11,11,11,0.10);
  --series-1:       #2a78d6;
  --series-2:       #eb6834;
  --series-3:       #1baf7a;
  --series-4:       #eda100;
  --series-5:       #e87ba4;
  --series-6:       #008300;
  --series-7:       #4a3aa7;
  --series-8:       #e34948;
  --series-other:   #a8a69e;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page:           #0d0d0d;
    --surface-1:      #1a1a19;
    --text-primary:   #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted:     #898781;
    --grid:           #2c2c2a;
    --baseline:       #383835;
    --border:         rgba(255,255,255,0.10);
    --series-1:       #3987e5;
    --series-2:       #d95926;
    --series-3:       #199e70;
    --series-4:       #c98500;
    --series-5:       #d55181;
    --series-6:       #008300;
    --series-7:       #9085e9;
    --series-8:       #e66767;
    --series-other:   #6f6e69;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page:           #0d0d0d;
  --surface-1:      #1a1a19;
  --text-primary:   #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted:     #898781;
  --grid:           #2c2c2a;
  --baseline:       #383835;
  --border:         rgba(255,255,255,0.10);
  --series-1:       #3987e5;
  --series-2:       #d95926;
  --series-3:       #199e70;
  --series-4:       #c98500;
  --series-5:       #d55181;
  --series-6:       #008300;
  --series-7:       #9085e9;
  --series-8:       #e66767;
  --series-other:   #6f6e69;
}
body.viz-root {
  margin: 0;
  background: var(--page);
  color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 780px; margin: 0 auto; padding: 24px 16px 48px; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: var(--text-secondary); margin: 0 0 16px; }
section.card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 12px 14px;
  margin: 12px 0;
}
.chart-title { font-weight: 600; margin: 0 0 2px; }
.chart-sub { color: var(--text-secondary); font-size: 12px; margin: 0 0 6px; }
svg { display: block; width: 100%%; height: auto; }
table { border-collapse: collapse; width: 100%%; font-size: 13px; }
th {
  text-align: left; color: var(--text-secondary); font-weight: 600;
  border-bottom: 1px solid var(--baseline); padding: 4px 8px 4px 0;
}
td { border-bottom: 1px solid var(--grid); padding: 4px 8px 4px 0; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
pre {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px; overflow-x: auto; font-size: 12px;
}
.legend { color: var(--text-secondary); font-size: 12px; margin: 0 0 8px; }
.legend .sw {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin: 0 5px 0 12px; vertical-align: -1px;
}
.legend .sw:first-child { margin-left: 0; }
</style>
</head>
<body class="viz-root">
<main>
`, html.EscapeString(title))
}

func writeHeader(b *strings.Builder, info RunInfo, dump timeseries.Dump) {
	fmt.Fprintf(b, "<h1>%s</h1>\n", html.EscapeString(info.Title))
	span := runSpan(dump)
	if span > 0 {
		fmt.Fprintf(b, "<p class=\"sub\">simulated span %s · sampling interval %s · %d samples per series</p>\n",
			html.EscapeString(span.String()),
			html.EscapeString(sim.Time(dump.IntervalPs).String()),
			sampleCount(dump))
	}
	if len(info.Params) == 0 {
		return
	}
	b.WriteString("<section class=\"card\"><h2 style=\"margin-top:0\">Run configuration</h2><table>\n")
	for _, p := range info.Params {
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%s</td></tr>\n",
			html.EscapeString(p[0]), html.EscapeString(p[1]))
	}
	b.WriteString("</table></section>\n")
}

// runSpan is the last boundary instant across all series.
func runSpan(dump timeseries.Dump) sim.Time {
	var last int64
	for _, s := range dump.Series {
		if n := len(s.Points); n > 0 && s.Points[n-1].TPs > last {
			last = s.Points[n-1].TPs
		}
	}
	return sim.Time(last)
}

func sampleCount(dump timeseries.Dump) int {
	n := 0
	for _, s := range dump.Series {
		if len(s.Points) > n {
			n = len(s.Points)
		}
	}
	return n
}

// writeTimelines emits one single-series chart card per sampled series. A
// single series needs no legend: the card title names it, and the line wears
// categorical slot 1.
func writeTimelines(b *strings.Builder, dump timeseries.Dump) {
	if len(dump.Series) == 0 {
		return
	}
	b.WriteString("<h2>Timelines</h2>\n")
	for _, s := range dump.Series {
		writeChart(b, s)
	}
}

func writeChart(b *strings.Builder, s timeseries.Series) {
	fmt.Fprintf(b, "<section class=\"card\">\n<p class=\"chart-title\">%s</p>\n<p class=\"chart-sub\">%s · %s</p>\n",
		html.EscapeString(s.Name), html.EscapeString(s.Kind), html.EscapeString(kindUnit(s.Kind)))
	if len(s.Points) == 0 {
		b.WriteString("<p class=\"chart-sub\">no samples</p>\n</section>\n")
		return
	}
	lo, hi := yDomain(s)
	tmax := float64(s.Points[len(s.Points)-1].TPs)

	fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" role=\"img\" aria-label=\"%s over simulated time\">\n",
		chartW, chartH, html.EscapeString(s.Name))
	// Recessive grid: three hairlines across the plot, baseline at the
	// bottom.
	for i := 1; i <= 3; i++ {
		y := yPos(lo+(hi-lo)*float64(i)/3, lo, hi)
		fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%s\" x2=\"%d\" y2=\"%s\" stroke=\"var(--grid)\" stroke-width=\"1\"/>\n",
			plotX0, f2(y), plotX1, f2(y))
	}
	fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"var(--baseline)\" stroke-width=\"1\"/>\n",
		plotX0, plotY1, plotX1, plotY1)

	// The series line: thin 2px stroke in slot-1 blue.
	if len(s.Points) == 1 {
		p := s.Points[0]
		fmt.Fprintf(b, "<circle cx=\"%s\" cy=\"%s\" r=\"3\" fill=\"var(--series-1)\"/>\n",
			f2(xPos(float64(p.TPs), tmax)), f2(yPos(p.Value, lo, hi)))
	} else {
		b.WriteString("<polyline fill=\"none\" stroke=\"var(--series-1)\" stroke-width=\"2\" stroke-linejoin=\"round\" points=\"")
		for i, p := range s.Points {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(b, "%s,%s", f2(xPos(float64(p.TPs), tmax)), f2(yPos(p.Value, lo, hi)))
		}
		b.WriteString("\"/>\n")
	}

	// Axis labels in muted ink; the direct last-value label in secondary
	// ink — text never wears the series color.
	fmt.Fprintf(b, "<text x=\"%d\" y=\"%d\" fill=\"var(--text-muted)\" font-size=\"11\">%s</text>\n",
		plotX0, plotY0-3, html.EscapeString(fmtVal(s.Kind, hi)))
	fmt.Fprintf(b, "<text x=\"%d\" y=\"%d\" fill=\"var(--text-muted)\" font-size=\"11\">%s</text>\n",
		plotX0, xLabelY, html.EscapeString("0"))
	fmt.Fprintf(b, "<text x=\"%d\" y=\"%d\" fill=\"var(--text-muted)\" font-size=\"11\" text-anchor=\"end\">%s</text>\n",
		plotX1, xLabelY, html.EscapeString(sim.Time(int64(tmax)).String()))
	last := s.Points[len(s.Points)-1]
	fmt.Fprintf(b, "<text x=\"%d\" y=\"%s\" fill=\"var(--text-secondary)\" font-size=\"11\" dominant-baseline=\"middle\">%s</text>\n",
		labelX, f2(yPos(last.Value, lo, hi)), html.EscapeString(fmtVal(s.Kind, last.Value)))

	// Hover layer: one transparent full-height rect per sample (hit target
	// wider than the 2px mark) carrying a native tooltip.
	n := len(s.Points)
	bw := float64(plotX1-plotX0) / float64(n)
	for i, p := range s.Points {
		fmt.Fprintf(b, "<rect x=\"%s\" y=\"%d\" width=\"%s\" height=\"%d\" fill=\"transparent\"><title>t=%s  %s</title></rect>\n",
			f2(float64(plotX0)+float64(i)*bw), plotY0, f2(bw), plotY1-plotY0,
			html.EscapeString(sim.Time(p.TPs).String()), html.EscapeString(fmtVal(s.Kind, p.Value)))
	}
	b.WriteString("</svg>\n</section>\n")
}

// yDomain picks the chart's value domain: fractions and ratios are anchored
// to [0,1]; everything else spans [0, max] so magnitude reads from the
// baseline.
func yDomain(s timeseries.Series) (lo, hi float64) {
	if s.Kind == "fraction" || s.Kind == "ratio" {
		return 0, 1
	}
	for _, p := range s.Points {
		if p.Value > hi {
			hi = p.Value
		}
	}
	if hi == 0 {
		hi = 1
	}
	return 0, hi
}

func xPos(t, tmax float64) float64 {
	if tmax <= 0 {
		return plotX0
	}
	return plotX0 + t/tmax*float64(plotX1-plotX0)
}

func yPos(v, lo, hi float64) float64 {
	if hi <= lo {
		return plotY1
	}
	frac := (v - lo) / (hi - lo)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return float64(plotY1) - frac*float64(plotY1-plotY0)
}

// f2 formats an SVG coordinate with fixed precision (deterministic bytes).
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func kindUnit(kind string) string {
	switch kind {
	case "fraction":
		return "busy fraction, 0–1"
	case "ratio":
		return "ratio, 0–1"
	case "rate":
		return "per second"
	case "delta":
		return "per interval"
	}
	return "value"
}

// fmtVal renders one sample value for labels and tooltips.
func fmtVal(kind string, v float64) string {
	switch kind {
	case "fraction", "ratio":
		return fmt.Sprintf("%.1f%%", v*100)
	}
	return fmt.Sprintf("%.4g", v)
}

// writeSeriesSummary is the table view of the timelines: identity and shape
// without relying on the charts.
func writeSeriesSummary(b *strings.Builder, dump timeseries.Dump) {
	if len(dump.Series) == 0 {
		return
	}
	b.WriteString("<h2>Series summary</h2>\n<section class=\"card\"><table>\n")
	b.WriteString("<tr><th>series</th><th>kind</th><th class=\"num\">min</th><th class=\"num\">mean</th><th class=\"num\">max</th><th class=\"num\">last</th></tr>\n")
	for _, s := range dump.Series {
		if len(s.Points) == 0 {
			fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td class=\"num\">–</td><td class=\"num\">–</td><td class=\"num\">–</td><td class=\"num\">–</td></tr>\n",
				html.EscapeString(s.Name), html.EscapeString(s.Kind))
			continue
		}
		min, max, sum := s.Points[0].Value, s.Points[0].Value, 0.0
		for _, p := range s.Points {
			if p.Value < min {
				min = p.Value
			}
			if p.Value > max {
				max = p.Value
			}
			sum += p.Value
		}
		mean := sum / float64(len(s.Points))
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td></tr>\n",
			html.EscapeString(s.Name), html.EscapeString(s.Kind),
			html.EscapeString(fmtVal(s.Kind, min)), html.EscapeString(fmtVal(s.Kind, mean)),
			html.EscapeString(fmtVal(s.Kind, max)), html.EscapeString(fmtVal(s.Kind, s.Points[len(s.Points)-1].Value)))
	}
	b.WriteString("</table></section>\n")
}

func writeLatencyTable(b *strings.Builder, snap obs.Snapshot) {
	if len(snap.Histograms) == 0 {
		return
	}
	b.WriteString("<h2>Per-stage latency</h2>\n<section class=\"card\"><table>\n")
	b.WriteString("<tr><th>stage</th><th class=\"num\">count</th><th class=\"num\">p50</th><th class=\"num\">p95</th><th class=\"num\">p99</th><th class=\"num\">total</th></tr>\n")
	for _, h := range snap.Histograms {
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td></tr>\n",
			html.EscapeString(h.Name), h.Count,
			html.EscapeString(sim.Time(h.P50Ps).String()), html.EscapeString(sim.Time(h.P95Ps).String()),
			html.EscapeString(sim.Time(h.P99Ps).String()), html.EscapeString(sim.Time(h.SumPs).String()))
	}
	b.WriteString("</table></section>\n")
}

// waterfall geometry (SVG user units).
const (
	wfLabelX = 4   // request label anchor
	wfX0     = 150 // bar origin
	wfX1     = 642 // bar extent at the slowest exemplar
	wfValueX = 650 // direct latency label anchor
	wfRowH   = 24
	wfBarH   = 14
	wfTopPad = 6
	wfGap    = 2 // surface gap between stacked segments
)

// attribSlots maps each component with latency mass onto a fixed palette
// slot in taxonomy order, so a component wears the same hue in every chart
// of the run (color follows the entity, never its rank). Slots run 1..8;
// components beyond the 8 hues fold into the muted "other" fill (-1); 0
// marks a component absent from this run.
func attribSlots(sum *attrib.Summary) (slot [attrib.NumComponents]int) {
	n := 0
	for c := range sum.Totals {
		if sum.Totals[c] > 0 {
			n++
			if n <= 8 {
				slot[c] = n
			} else {
				slot[c] = -1
			}
		}
	}
	return slot
}

func slotFill(slot int) string {
	if slot < 0 {
		return "var(--series-other)"
	}
	return fmt.Sprintf("var(--series-%d)", slot)
}

// writeAttrib renders the latency-anatomy section: the per-component
// breakdown table (the accessible table view of the waterfall) and one
// stacked horizontal bar per slow-request exemplar.
func writeAttrib(b *strings.Builder, sum *attrib.Summary) {
	if sum == nil || sum.Requests == 0 {
		return
	}
	b.WriteString("<h2>Latency anatomy</h2>\n")
	writeAttribTable(b, sum)
	writeWaterfall(b, sum)
}

func writeAttribTable(b *strings.Builder, sum *attrib.Summary) {
	slot := attribSlots(sum)
	fmt.Fprintf(b, "<section class=\"card\">\n<p class=\"chart-title\">Component breakdown</p>\n<p class=\"chart-sub\">%d requests · total latency %s · conservation residual %s</p>\n",
		sum.Requests, html.EscapeString(sum.TotalLatency.String()),
		html.EscapeString(sum.MaxResidual.String()))
	if sum.Violations > 0 {
		fmt.Fprintf(b, "<p class=\"chart-sub\">CONSERVATION VIOLATED on %d requests</p>\n", sum.Violations)
	}
	b.WriteString("<table>\n<tr><th>component</th><th class=\"num\">total</th><th class=\"num\">share</th><th class=\"num\">dominates</th></tr>\n")
	for _, c := range sum.Ranked() {
		share := 0.0
		if sum.TotalLatency > 0 {
			share = float64(sum.Totals[c]) / float64(sum.TotalLatency) * 100
		}
		fmt.Fprintf(b, "<tr><td><span class=\"sw\" style=\"background:%s;display:inline-block;width:10px;height:10px;border-radius:2px;margin-right:6px;vertical-align:-1px\"></span>%s</td><td class=\"num\">%s</td><td class=\"num\">%.1f%%</td><td class=\"num\">%d</td></tr>\n",
			slotFill(slot[c]), html.EscapeString(c.String()),
			html.EscapeString(sum.Totals[c].String()), share, sum.Dominant[c])
	}
	b.WriteString("</table></section>\n")
}

func writeWaterfall(b *strings.Builder, sum *attrib.Summary) {
	if len(sum.Exemplars) == 0 {
		return
	}
	slot := attribSlots(sum)
	maxLat := sum.Exemplars[0].Latency()
	for _, ex := range sum.Exemplars {
		if ex.Latency() > maxLat {
			maxLat = ex.Latency()
		}
	}
	if maxLat <= 0 {
		return
	}

	fmt.Fprintf(b, "<section class=\"card\">\n<p class=\"chart-title\">Slowest requests</p>\n<p class=\"chart-sub\">top %d by end-to-end latency · bar length scaled to the slowest</p>\n",
		len(sum.Exemplars))
	// Legend: identity never rides on color alone — names beside swatches,
	// and each segment also carries a tooltip.
	b.WriteString("<p class=\"legend\">")
	folded := false
	for c := range sum.Totals {
		switch {
		case slot[c] > 0:
			fmt.Fprintf(b, "<span class=\"sw\" style=\"background:%s\"></span>%s",
				slotFill(slot[c]), html.EscapeString(attrib.Component(c).String()))
		case slot[c] < 0:
			folded = true
		}
	}
	if folded {
		fmt.Fprintf(b, "<span class=\"sw\" style=\"background:var(--series-other)\"></span>other")
	}
	b.WriteString("</p>\n")

	h := wfTopPad + len(sum.Exemplars)*wfRowH
	fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" role=\"img\" aria-label=\"latency waterfall of the slowest requests\">\n",
		chartW, h)
	scale := float64(wfX1-wfX0) / float64(maxLat)
	for i, ex := range sum.Exemplars {
		rowY := float64(wfTopPad + i*wfRowH)
		barY := rowY + float64(wfRowH-wfBarH)/2
		midY := barY + float64(wfBarH)/2
		fmt.Fprintf(b, "<text x=\"%d\" y=\"%s\" fill=\"var(--text-secondary)\" font-size=\"11\" dominant-baseline=\"middle\">#%d %s %s</text>\n",
			wfLabelX, f2(midY), ex.ID, html.EscapeString(attrib.KindName(ex.Kind)),
			html.EscapeString(fmtBytes(ex.Size)))
		x := float64(wfX0)
		var otherDur sim.Time
		for c, d := range ex.Comp {
			if d <= 0 || slot[c] == 0 {
				continue
			}
			if slot[c] < 0 {
				otherDur += d
				continue
			}
			w := float64(d) * scale
			x = wfSegment(b, x, barY, w, slotFill(slot[c]),
				fmt.Sprintf("#%d %s · %v %s (%.1f%%)", ex.ID, attrib.KindName(ex.Kind),
					attrib.Component(c), d, float64(d)/float64(ex.Latency())*100))
		}
		if otherDur > 0 {
			x = wfSegment(b, x, barY, float64(otherDur)*scale, "var(--series-other)",
				fmt.Sprintf("#%d %s · other %s", ex.ID, attrib.KindName(ex.Kind), otherDur))
		}
		fmt.Fprintf(b, "<text x=\"%d\" y=\"%s\" fill=\"var(--text-secondary)\" font-size=\"11\" dominant-baseline=\"middle\">%s</text>\n",
			wfValueX, f2(midY), html.EscapeString(ex.Latency().String()))
	}
	b.WriteString("</svg>\n</section>\n")
}

// wfSegment draws one waterfall segment at x, trimming the 2px surface gap
// from its right edge so adjacent fills never touch, and returns the next
// segment's origin. Sub-gap segments keep a hairline, capped at their true
// width so they can never bleed into the neighbor.
func wfSegment(b *strings.Builder, x, y, w float64, fill, tip string) float64 {
	draw := w - wfGap
	if draw < 0.5 {
		draw = 0.5
		if draw > w {
			draw = w
		}
	}
	fmt.Fprintf(b, "<rect x=\"%s\" y=\"%s\" width=\"%s\" height=\"%d\" rx=\"1\" fill=\"%s\"><title>%s</title></rect>\n",
		f2(x), f2(y), f2(draw), wfBarH, fill, html.EscapeString(tip))
	return x + w
}

// fmtBytes renders a request size compactly (sizes are power-of-two block
// multiples, so integer KiB/MiB cover every case).
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// writeHostPerf renders the host-performance section: what the simulator
// process itself cost to produce this run, as a per-phase resource table.
// Entirely absent when the run was not driven with -hostperf.
func writeHostPerf(b *strings.Builder, host *hostperf.Summary) {
	if host == nil {
		return
	}
	b.WriteString("<h2>Host performance</h2>\n")
	b.WriteString("<section class=\"card\">\n<p class=\"chart-title\">Per-phase host cost</p>\n<p class=\"chart-sub\">wall-clock resources of the simulator process, per run phase</p>\n<table>\n")
	b.WriteString("<tr><th>phase</th><th class=\"num\">wall</th><th class=\"num\">cpu</th><th class=\"num\">allocs</th><th class=\"num\">alloc bytes</th><th class=\"num\">gc</th><th class=\"num\">pause</th></tr>\n")
	row := func(p hostperf.PhaseCost) {
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td class=\"num\">%d</td><td class=\"num\">%s</td><td class=\"num\">%d</td><td class=\"num\">%s</td></tr>\n",
			html.EscapeString(p.Name),
			html.EscapeString(p.Wall.Round(time.Microsecond).String()),
			html.EscapeString(p.CPU.Round(time.Microsecond).String()),
			p.AllocObjs, html.EscapeString(fmtByteCount(p.AllocBytes)),
			p.GCCycles, html.EscapeString(p.GCPause.Round(time.Microsecond).String()))
	}
	for _, p := range host.Phases {
		row(p)
	}
	row(host.Total)
	b.WriteString("</table></section>\n")
}

// fmtByteCount renders a byte total with a binary unit, one decimal.
func fmtByteCount(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func writeCounters(b *strings.Builder, snap obs.Snapshot) {
	if len(snap.Counters) == 0 && len(snap.Gauges) == 0 {
		return
	}
	b.WriteString("<h2>Counters and gauges</h2>\n<section class=\"card\"><table>\n")
	b.WriteString("<tr><th>metric</th><th class=\"num\">value</th></tr>\n")
	for _, c := range snap.Counters {
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%d</td></tr>\n", html.EscapeString(c.Name), c.Value)
	}
	for _, g := range snap.Gauges {
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%s</td></tr>\n",
			html.EscapeString(g.Name), html.EscapeString(fmt.Sprintf("%.6g", g.Value)))
	}
	b.WriteString("</table></section>\n")
}
