package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"

	"oocnvm/internal/sim"
)

// Attr is one key/value annotation on a span; it lands in the Chrome trace
// event's "args" object.
type Attr struct {
	Key   string
	Value any
}

// A span is one recorded interval of simulated time on a (layer, track).
type span struct {
	layer, track, name string
	start, end         sim.Time
	attrs              []Attr
}

// DefaultTraceLimit bounds tracer memory: a full OoC replay emits one span
// per bus transfer and die activation, which for multi-GiB workloads runs
// into the millions. 2^18 events keeps the Chrome JSON loadable; the
// overflow is counted, never silently discarded.
const DefaultTraceLimit = 1 << 18

// Tracer records spans of simulated time and exports them in the Chrome
// trace_event format: one "process" per layer, one "thread" per track
// (channel, die, queue, link...). Safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	limit   int
	spans   []span
	dropped int64
}

// NewTracer returns a tracer bounded at DefaultTraceLimit events.
func NewTracer() *Tracer { return &Tracer{limit: DefaultTraceLimit} }

// Span records one interval. Spans with end < start are clamped to zero
// duration at start.
func (t *Tracer) Span(layer, track, name string, start, end sim.Time, attrs ...Attr) {
	if end < start {
		end = start
	}
	t.mu.Lock()
	if t.limit > 0 && len(t.spans) >= t.limit {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.spans = append(t.spans, span{layer: layer, track: track, name: name, start: start, end: end, attrs: attrs})
	t.mu.Unlock()
}

// Len reports how many spans are recorded.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped reports how many spans were rejected by the event cap.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanRecord is one recorded span, as returned by Spans.
type SpanRecord struct {
	Layer, Track, Name string
	Start, End         sim.Time
	Attrs              []Attr
}

// Spans returns a copy of all recorded spans in recording order, for tests
// and programmatic inspection.
func (t *Tracer) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	for i, s := range t.spans {
		out[i] = SpanRecord{Layer: s.layer, Track: s.track, Name: s.name, Start: s.start, End: s.end, Attrs: s.attrs}
	}
	return out
}

// chromeTrace is the JSON object format of the Chrome trace_event spec.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeEvent is one trace_event. Complete spans use ph "X" with ts/dur in
// microseconds; process/thread naming uses ph "M" metadata events.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// psToUs converts picoseconds to the trace format's microsecond unit.
func psToUs(t sim.Time) float64 { return float64(t) / 1e6 }

// WriteChromeJSON exports all recorded spans as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto. The export is deterministic:
// layers and tracks are id'd in sorted order and events are sorted by
// (layer, track, start, end, name).
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	t.mu.Lock()
	spans := make([]span, len(t.spans))
	copy(spans, t.spans)
	dropped := t.dropped
	t.mu.Unlock()

	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.layer != b.layer {
			return a.layer < b.layer
		}
		if a.track != b.track {
			return a.track < b.track
		}
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end < b.end
		}
		return a.name < b.name
	})

	// Assign pids per layer and tids per (layer, track), both in sorted
	// order (the spans are already layer/track sorted).
	pids := make(map[string]int)
	type lt struct{ layer, track string }
	tids := make(map[lt]int)
	events := make([]chromeEvent, 0, len(spans)+8)
	for _, s := range spans {
		pid, ok := pids[s.layer]
		if !ok {
			pid = len(pids) + 1
			pids[s.layer] = pid
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": s.layer},
			})
		}
		key := lt{s.layer, s.track}
		tid, ok := tids[key]
		if !ok {
			tid = 1
			for k := range tids {
				if k.layer == s.layer {
					tid++
				}
			}
			tids[key] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": s.track},
			})
		}
		dur := psToUs(s.end - s.start)
		ev := chromeEvent{Name: s.name, Ph: "X", Pid: pid, Tid: tid, Ts: psToUs(s.start), Dur: &dur}
		if len(s.attrs) > 0 {
			ev.Args = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
	}
	if dropped > 0 {
		// Surface truncation inside the trace itself so a viewer sees it.
		events = append(events, chromeEvent{
			Name: "tracer_dropped_events", Ph: "M", Pid: 0,
			Args: map[string]any{"dropped": dropped},
		})
	}

	b, err := json.MarshalIndent(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ns"}, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
