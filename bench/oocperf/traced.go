package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"oocnvm/internal/check"
	"oocnvm/internal/experiment"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
)

// spanStride is the sampling rate of request spans after the first cell:
// every request of the first cell is kept, then every spanStride-th.
const spanStride = 64

// span is one host-time interval recorded by the traced phase.
type span struct {
	name       string
	start, end time.Time
	req        int64 // request id shared by an ssd.submit span and its translate child; -1 for a cell span
}

// tracedResult is what the traced phase measured, summed over every cell.
type tracedResult struct {
	fsTransform time.Duration
	fsRequests  int64

	translate callTimer
	submit    []int64 // per-request Submit nanoseconds
	errors    int64

	transfers      int64
	linkReplay     time.Duration
	linkReplayed   int64
	linkEstimate   time.Duration
	nvmPages       int64
	chanUtil       float64 // summed over cells
	pkgUtil        float64
	ftlRelocated   int64
	ftlHostWrites  int64
	ftlNANDWrites  int64
	ftlCkptPages   int64
	ftlJournal     int64
	faultOverhead  time.Duration
	corrected      int64
	retried        int64
	obsRecord      time.Duration
	obsExport      time.Duration
	obsSpans       int64
	obsDropped     int64
	attribRequests int64

	cellTimes []float64 // seconds: block trace, build and plain replay of each cell
	plain     time.Duration
	wrapped   time.Duration
	cells     int

	spans []span
}

// tracedPhase rebuilds each cell from public constructors, one at a time,
// twice: plain, and with a timing translator and a recording link. Fault
// and observability twins price those layers. Every cell-run is checked
// against the reference result of the warm-up pass and counted in t.
func tracedPhase(w workload, opt experiment.Options, ref []ssd.Result, t *tally) (*tracedResult, error) {
	tr := &tracedResult{}
	log := newTransferLog(maxRecordedTransfers)
	var reqID int64
	for i, c := range w.cellList() {
		runtime.GC()
		start := time.Now()
		ops, window, err := experiment.BlockTrace(c.cfg, c.typ, opt)
		if err != nil {
			return nil, err
		}
		transform := time.Since(start)
		tr.fsTransform += transform
		tr.fsRequests += int64(len(ops))

		// Plain rebuild: the reference timing.
		buildStart := time.Now()
		plain, err := build(c, opt, window, stackParts{faults: true, observed: w.observed})
		if err != nil {
			return nil, err
		}
		buildTime := time.Since(buildStart)
		runtime.GC()
		replayStart := time.Now()
		errs := replayAll(plain.drive, ops)
		res := plain.finish()
		plainTime := time.Since(replayStart)
		tr.plain += plainTime
		tr.cellTimes = append(tr.cellTimes, (transform + buildTime + plainTime).Seconds())
		var exportTime time.Duration
		var bad []string
		if w.observed {
			exportStart := time.Now()
			if err := plain.obs.render(c.String()); err != nil {
				return nil, err
			}
			exportTime = time.Since(exportStart)
			tr.obsExport += exportTime
			tr.obsSpans += int64(plain.obs.col.Tr.Len())
			tr.obsDropped += plain.obs.col.Tr.Dropped()
			tr.attribRequests += plain.obs.rec.Requests()
			for _, v := range check.CheckAttribution(plain.obs.rec.Summary()) {
				bad = append(bad, v.Kind+": "+v.Detail)
			}
		}
		t.add(c, "traced plain", append(bad, tracedChecks(c, opt, res, ref[i], errs)...))

		// Wrapped rebuild: per-request host time by layer.
		log.reset()
		tr.translate.reserve(len(ops))
		tr.submit = slices.Grow(tr.submit, len(ops))
		wrapped, err := build(c, opt, window, stackParts{timer: &tr.translate, log: log, faults: true, observed: w.observed})
		if err != nil {
			return nil, err
		}
		keepAll := i == 0
		errs = 0
		runtime.GC()
		cellStart := time.Now()
		for _, op := range ops {
			calls := len(tr.translate.durs)
			s := time.Now()
			_, err := wrapped.drive.Submit(op)
			e := time.Now()
			tr.submit = append(tr.submit, int64(e.Sub(s)))
			if err != nil {
				errs++
			}
			if keepAll || reqID%spanStride == 0 {
				tr.spans = append(tr.spans, span{name: "ssd.submit", start: s, end: e, req: reqID})
				if len(tr.translate.durs) > calls {
					tr.spans = append(tr.spans, span{name: "translate", start: tr.translate.lastStart, end: tr.translate.lastEnd, req: reqID})
				}
			}
			reqID++
		}
		wres := wrapped.finish()
		cellEnd := time.Now()
		tr.wrapped += cellEnd.Sub(cellStart)
		tr.spans = append(tr.spans, span{name: c.String(), start: cellStart, end: cellEnd, req: -1})
		tr.errors += int64(errs)
		t.add(c, "traced wrapped", tracedChecks(c, opt, wres, ref[i], errs))

		tr.transfers += log.n
		if len(log.at) > 0 {
			d := priceTransfers(c.cfg.BuildLink(), log)
			tr.linkReplay += d
			tr.linkReplayed += int64(len(log.at))
			tr.linkEstimate += time.Duration(float64(d) / float64(len(log.at)) * float64(log.n))
		}
		st := wres.Stats
		tr.nvmPages += st.Reads + st.Programs + st.Erases
		tr.chanUtil += st.ChannelUtilization
		tr.pkgUtil += st.PackageUtilization
		tr.corrected += wres.Faults.Corrected
		tr.retried += wres.Faults.Retried
		if wrapped.ftl != nil {
			fst := wrapped.ftl.Stats()
			tr.ftlRelocated += fst.RelocatedPages
			tr.ftlHostWrites += fst.HostWrites
			tr.ftlNANDWrites += fst.NANDWrites
			tr.ftlCkptPages += fst.CkptPages
			tr.ftlJournal += fst.JournalPages
		}

		// Twins without the layer being priced.
		if opt.Fault.Enabled() {
			d, err := timeReplay(c, opt, window, ops, stackParts{observed: w.observed})
			if err != nil {
				return nil, err
			}
			tr.faultOverhead += plainTime - d
		}
		if w.observed {
			d, err := timeReplay(c, opt, window, ops, stackParts{faults: true})
			if err != nil {
				return nil, err
			}
			tr.obsRecord += plainTime + exportTime - d
		}
		tr.cells++
	}
	return tr, nil
}

// tracedChecks adds the traced phase's own check to checkCell: a fault-free
// stack's requests never fail.
func tracedChecks(c cell, opt experiment.Options, res, ref ssd.Result, errs int) []string {
	bad := checkCell(c, opt, res, ref)
	if errs > 0 && !opt.Fault.Enabled() {
		bad = append(bad, fmt.Sprintf("%d Submit errors on a fault-free stack", errs))
	}
	return bad
}

// timeReplay builds a twin stack and returns the host time of its replay.
func timeReplay(c cell, opt experiment.Options, window int64, ops []trace.BlockOp, p stackParts) (time.Duration, error) {
	st, err := build(c, opt, window, p)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	replayAll(st.drive, ops)
	st.finish()
	return time.Since(start), nil
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, timestamps
// in microseconds since base. Open it in chrome://tracing or Perfetto.
func writeChromeTrace(w io.Writer, spans []span, base time.Time) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{Name: s.name, Cat: "cell", Ph: "X", Pid: 1, Tid: 1,
			Ts: us(s.start.Sub(base)), Dur: us(s.end.Sub(s.start))}
		if s.req >= 0 {
			ev.Cat = "request"
			ev.Args = map[string]int64{"req": s.req}
		}
		events = append(events, ev)
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}

// saveChromeTrace writes the spans to dir/name, creating dir.
func saveChromeTrace(dir, name string, spans []span, base time.Time) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := writeChromeTrace(f, spans, base); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
