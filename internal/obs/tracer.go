package obs

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

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

// chunkSpans is the span capacity of one storage chunk. The tracer adds
// chunks as it fills and never regrows one, so recording never copies a
// stored span.
const chunkSpans = 4096

// Tracer records spans of simulated time and exports them in the Chrome
// trace_event format: one "process" per layer, one "thread" per track
// (channel, die, queue, link...). Safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	limit int
	// n spans are stored, in recording order, across chunks. A stored span
	// never changes, so readers take n and chunks under mu and then read
	// the spans unlocked.
	n      int
	chunks []*[chunkSpans]span
	// full is set once limit spans are stored: every later Span only
	// counts its drop.
	full    atomic.Bool
	dropped atomic.Int64
}

// NewTracer returns a tracer bounded at DefaultTraceLimit events.
func NewTracer() *Tracer { return &Tracer{limit: DefaultTraceLimit} }

// Span records one interval. Spans with end < start are clamped to zero
// duration at start. Once the cap is reached, Span only counts the drop,
// with one atomic add and no lock.
func (t *Tracer) Span(layer, track, name string, start, end sim.Time, attrs ...Attr) {
	if t.full.Load() {
		t.dropped.Add(1)
		return
	}
	if end < start {
		end = start
	}
	t.mu.Lock()
	if t.limit > 0 && t.n >= t.limit {
		t.full.Store(true)
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	c := t.n / chunkSpans
	if c == len(t.chunks) {
		t.chunks = append(t.chunks, new([chunkSpans]span))
	}
	t.chunks[c][t.n%chunkSpans] = span{layer: layer, track: track, name: name, start: start, end: end, attrs: attrs}
	t.n++
	if t.n == t.limit {
		t.full.Store(true)
	}
	t.mu.Unlock()
}

// stored returns the span count and the chunks holding them.
func (t *Tracer) stored() (int, []*[chunkSpans]span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n, t.chunks
}

// Len reports how many spans are recorded.
func (t *Tracer) Len() int {
	n, _ := t.stored()
	return n
}

// Dropped reports how many spans were rejected by the event cap.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// SpanRecord is one recorded span, as returned by Spans.
type SpanRecord struct {
	Layer, Track, Name string
	Start, End         sim.Time
	Attrs              []Attr
}

// Spans returns a copy of all recorded spans in recording order, for tests
// and programmatic inspection.
func (t *Tracer) Spans() []SpanRecord {
	n, chunks := t.stored()
	out := make([]SpanRecord, n)
	for i := range out {
		s := &chunks[i/chunkSpans][i%chunkSpans]
		out[i] = SpanRecord{Layer: s.layer, Track: s.track, Name: s.name, Start: s.start, End: s.end, Attrs: s.attrs}
	}
	return out
}

// WriteChromeJSON exports all recorded spans as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto. The export is deterministic:
// layers and tracks are id'd in sorted order and events are sorted by
// (layer, track, start, end, name), ties kept in recording order.
//
// The bytes are exactly those of json.MarshalIndent(trace, "", " ") over
// the trace_event object, written in one streaming pass. Attr values of
// type int, int64 and string are formatted directly; any other value goes
// through encoding/json. A value encoding/json rejects (a NaN, a channel)
// returns its error, and the output written to w may then be partial.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	n, chunks := t.stored()
	dropped := t.dropped.Load()
	at := func(i int) *span { return &chunks[i/chunkSpans][i%chunkSpans] }

	// Bucket the span indices by (layer, track) with a counting sort over
	// the sorted tracks; each bucket keeps recording order.
	type lt struct{ layer, track string }
	ids := make(map[lt]int)
	var tracks []lt
	bucket := make([]int, n)
	for i := range bucket {
		s := at(i)
		k := lt{s.layer, s.track}
		b, ok := ids[k]
		if !ok {
			b = len(tracks)
			ids[k] = b
			tracks = append(tracks, k)
		}
		bucket[i] = b
	}
	order := make([]int, len(tracks)) // track ids in (layer, track) order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := strings.Compare(tracks[a].layer, tracks[b].layer); c != 0 {
			return c
		}
		return strings.Compare(tracks[a].track, tracks[b].track)
	})
	// next[b] is where track b's next span index goes in idx.
	next := make([]int, len(tracks))
	for _, b := range bucket {
		next[b]++
	}
	off := 0
	for _, b := range order {
		off, next[b] = off+next[b], off
	}
	idx := make([]int, n)
	for i, b := range bucket {
		idx[next[b]] = i
		next[b]++
	}

	tw := traceWriter{w: bufio.NewWriterSize(w, 64<<10)}
	tw.w.WriteString("{\n \"traceEvents\": [")
	var pid, tid int
	from := 0
	for r, b := range order {
		k := tracks[b]
		if r == 0 || k.layer != tracks[order[r-1]].layer {
			pid, tid = pid+1, 0
			if err := tw.meta("process_name", pid, 0, Attr{Key: "name", Value: k.layer}); err != nil {
				return err
			}
		}
		tid++
		if err := tw.meta("thread_name", pid, tid, Attr{Key: "name", Value: k.track}); err != nil {
			return err
		}
		to := next[b] // the bucket's end after placement
		spans := idx[from:to]
		from = to
		// Index order breaks the remaining ties, which keeps the order a
		// stable sort of the recording would give.
		slices.SortFunc(spans, func(i, j int) int {
			a, b := at(i), at(j)
			if c := cmp.Compare(a.start, b.start); c != 0 {
				return c
			}
			if c := cmp.Compare(a.end, b.end); c != 0 {
				return c
			}
			if c := strings.Compare(a.name, b.name); c != 0 {
				return c
			}
			return i - j
		})
		for _, i := range spans {
			if err := tw.span(pid, tid, at(i)); err != nil {
				return err
			}
		}
	}
	if dropped > 0 {
		// Surface truncation inside the trace itself so a viewer sees it.
		if err := tw.meta("tracer_dropped_events", 0, 0, Attr{Key: "dropped", Value: dropped}); err != nil {
			return err
		}
	}
	if tw.events > 0 {
		tw.w.WriteString("\n ]")
	} else {
		tw.w.WriteString("]")
	}
	tw.w.WriteString(",\n \"displayTimeUnit\": \"ns\"\n}\n")
	return tw.w.Flush()
}

// traceWriter formats trace events as json.MarshalIndent(…, "", " ")
// prints them inside the traceEvents array.
type traceWriter struct {
	w      *bufio.Writer
	events int
	keys   []int // args key order scratch
}

// argsIndent is the indent of an args member's line.
const argsIndent = "    "

// head appends an event's opening through its "ts" key.
func (tw *traceWriter) head(b []byte, name, ph string, pid, tid int) []byte {
	if tw.events > 0 {
		b = append(b, ',')
	}
	tw.events++
	b = append(b, "\n  {\n   \"name\": "...)
	b = appendString(b, name)
	b = append(b, ",\n   \"ph\": \""...)
	b = append(b, ph...)
	b = append(b, "\",\n   \"pid\": "...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, ",\n   \"tid\": "...)
	b = strconv.AppendInt(b, int64(tid), 10)
	return append(b, ",\n   \"ts\": "...)
}

// meta writes one metadata (ph "M") event: ts 0, no dur, one arg.
func (tw *traceWriter) meta(name string, pid, tid int, arg Attr) error {
	b := tw.head(tw.w.AvailableBuffer(), name, "M", pid, tid)
	b = append(b, '0')
	b, err := tw.args(b, []Attr{arg})
	if err != nil {
		return err
	}
	_, err = tw.w.Write(append(b, "\n  }"...))
	return err
}

// span writes one complete (ph "X") event.
func (tw *traceWriter) span(pid, tid int, s *span) error {
	b := tw.head(tw.w.AvailableBuffer(), s.name, "X", pid, tid)
	b = appendMicros(b, s.start)
	b = append(b, ",\n   \"dur\": "...)
	b = appendMicros(b, s.end-s.start)
	if len(s.attrs) > 0 {
		var err error
		if b, err = tw.args(b, s.attrs); err != nil {
			return err
		}
	}
	_, err := tw.w.Write(append(b, "\n  }"...))
	return err
}

// args appends the "args" object as encoding/json prints a map[string]any
// built from attrs: keys in sorted order, the last of any duplicate key
// winning.
func (tw *traceWriter) args(b []byte, attrs []Attr) ([]byte, error) {
	keys := tw.keys[:0]
	for i := range attrs {
		keys = append(keys, i)
	}
	slices.SortStableFunc(keys, func(i, j int) int { return strings.Compare(attrs[i].Key, attrs[j].Key) })
	tw.keys = keys
	b = append(b, ",\n   \"args\": {"...)
	sep := "\n" + argsIndent
	for n, i := range keys {
		if n+1 < len(keys) && attrs[keys[n+1]].Key == attrs[i].Key {
			continue // a later duplicate wins
		}
		b = append(b, sep...)
		sep = ",\n" + argsIndent
		b = appendString(b, attrs[i].Key)
		b = append(b, ": "...)
		switch v := attrs[i].Value.(type) {
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		case int64:
			b = strconv.AppendInt(b, v, 10)
		case string:
			b = appendString(b, v)
		default:
			j, err := json.MarshalIndent(v, argsIndent, " ")
			if err != nil {
				return b, err
			}
			b = append(b, j...)
		}
	}
	return append(b, "\n   }"...), nil
}

// appendString appends s quoted as encoding/json quotes it (HTML-safe):
// printable ASCII that needs no escape directly, anything else through
// json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendMicros appends ps picoseconds in microseconds, as encoding/json
// prints float64(ps)/1e6. Below 10^15 ps the quotient has at most 15
// significant decimal digits, so its shortest float64 form is exactly the
// whole microseconds plus the fractional digits without trailing zeros;
// other values take the float path ('f' form: an int64 of picoseconds is
// never below 1e-6 µs unless 0, nor at 1e21 µs).
func appendMicros(b []byte, ps sim.Time) []byte {
	if ps < 0 || ps >= 1e15 {
		return strconv.AppendFloat(b, float64(ps)/1e6, 'f', -1, 64)
	}
	b = strconv.AppendInt(b, int64(ps/1e6), 10)
	frac := int64(ps % 1e6)
	if frac == 0 {
		return b
	}
	digits := 6
	for frac%10 == 0 {
		frac /= 10
		digits--
	}
	var d [6]byte
	for i := digits - 1; i >= 0; i-- {
		d[i] = byte('0' + frac%10)
		frac /= 10
	}
	b = append(b, '.')
	return append(b, d[:digits]...)
}
