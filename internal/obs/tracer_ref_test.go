package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"oocnvm/internal/sim"
)

// The reference Chrome trace writer: the format's definition, built from
// encoding/json structs and one MarshalIndent call. WriteChromeJSON must
// match its bytes exactly (TestChromeTraceMatchesReference).

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

// writeChromeJSONRef exports t's spans through encoding/json.
func writeChromeJSONRef(t *Tracer, w io.Writer) error {
	spans := t.Spans()
	dropped := t.Dropped()

	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.Name < b.Name
	})

	// Assign pids per layer and tids per (layer, track), both in sorted
	// order (the spans are already layer/track sorted).
	pids := make(map[string]int)
	type lt struct{ layer, track string }
	tids := make(map[lt]int)
	events := make([]chromeEvent, 0, len(spans)+8)
	for _, s := range spans {
		pid, ok := pids[s.Layer]
		if !ok {
			pid = len(pids) + 1
			pids[s.Layer] = pid
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": s.Layer},
			})
		}
		key := lt{s.Layer, s.Track}
		tid, ok := tids[key]
		if !ok {
			tid = 1
			for k := range tids {
				if k.layer == s.Layer {
					tid++
				}
			}
			tids[key] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": s.Track},
			})
		}
		dur := psToUs(s.End - s.Start)
		ev := chromeEvent{Name: s.Name, Ph: "X", Pid: pid, Tid: tid, Ts: psToUs(s.Start), Dur: &dur}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
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

// TestChromeTraceMatchesReference compares WriteChromeJSON byte for byte
// with the reference writer on populations that exercise every part of the
// encoding/json format the stream has to reproduce.
func TestChromeTraceMatchesReference(t *testing.T) {
	unsafe := []string{"a<b", "c>d", "e&f", `g"h`, `i\j`, "k\x01l", "m\xffn", "o\u2028p", "q\u2029r", "tab\tend", "del\x7f", "ünï"}
	for _, tc := range []struct {
		name  string
		build func() *Tracer
	}{
		{"golden", buildGoldenTracer},
		{"empty", NewTracer},
		{"dropped", func() *Tracer {
			tr := NewTracer()
			tr.SetLimit(3)
			for i := sim.Time(0); i < 10; i++ {
				tr.Span(LayerSSD, "q", "R", 10-i, 20-i)
			}
			return tr
		}},
		{"escaped strings", func() *Tracer {
			tr := NewTracer()
			for i, s := range unsafe {
				at := sim.Time(i) * sim.Microsecond
				tr.Span(s, "track", "name", at, at+1)
				tr.Span(LayerNVM, s, "name", at, at+1)
				tr.Span(LayerNVM, "track", s, at, at+1, Attr{Key: s, Value: s})
			}
			return tr
		}},
		{"duplicate keys", func() *Tracer {
			tr := NewTracer()
			tr.Span(LayerSSD, "q", "R", 0, 1,
				Attr{Key: "b", Value: 1}, Attr{Key: "a", Value: 2}, Attr{Key: "b", Value: 3}, Attr{Key: "a", Value: 4})
			tr.Span(LayerSSD, "q", "W", 0, 1, Attr{Key: "k", Value: "first"}, Attr{Key: "k", Value: "last"})
			tr.Span(LayerSSD, "q", "E", 0, 1, Attr{Key: "a", Value: 1}, Attr{Key: "a", Value: int64(2)}, Attr{Key: "z", Value: 3})
			return tr
		}},
		{"attr values", func() *Tracer {
			tr := NewTracer()
			for i, v := range []any{
				7, int64(-1 << 40), "s", true, false, 2.5e-9, 1e-7, 0.1, 1e21, 123456789.125,
				[]int{1, 2, 3}, []int{}, map[string]int{"z": 1, "a": 2}, nil, uint8(9), sim.Time(5),
			} {
				tr.Span(LayerFS, "ops", "op", sim.Time(i), sim.Time(i+1), Attr{Key: "v", Value: v}, Attr{Key: "w", Value: i})
			}
			return tr
		}},
		{"times", func() *Tracer {
			tr := NewTracer()
			for _, ts := range []sim.Time{0, 1, 999_999, 1_000_000, 1_000_001, 123_456_789, 1e15 - 1, 1e15, 1e15 + 1, 1 << 53, -1, -1_500_000} {
				tr.Span(LayerNVM, "die", "t", ts, ts+999_999)
				tr.Span(LayerNVM, "die", "t", ts, ts)
				tr.Span(LayerNVM, "die", "clamped", ts, ts-5)
			}
			return tr
		}},
		{"many tracks and ties", func() *Tracer {
			tr := NewTracer()
			rng := sim.NewRNG(7)
			for i := 0; i < 5000; i++ {
				track := fmt.Sprintf("ch%02d/die%02d", rng.Intn(8), rng.Intn(40))
				start := sim.Time(rng.Intn(50)) * sim.Microsecond
				end := start + sim.Time(rng.Intn(3))*sim.Microsecond
				tr.Span(LayerNVM, track, []string{"sense", "stage", "xfer"}[rng.Intn(3)], start, end, Attr{Key: "i", Value: i})
			}
			return tr
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got, want bytes.Buffer
			if err := tc.build().WriteChromeJSON(&got); err != nil {
				t.Fatal(err)
			}
			if err := writeChromeJSONRef(tc.build(), &want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				g, w := got.Bytes(), want.Bytes()
				i := 0
				for i < len(g) && i < len(w) && g[i] == w[i] {
					i++
				}
				lo := max(0, i-80)
				t.Fatalf("stream differs from the reference at byte %d:\ngot  %q\nwant %q",
					i, g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
			}
		})
	}
}

// TestChromeTraceRejectsWhatJSONRejects keeps encoding/json's errors: an
// attr value it cannot encode fails the export.
func TestChromeTraceRejectsWhatJSONRejects(t *testing.T) {
	for _, v := range []any{math.NaN(), math.Inf(1), make(chan int)} {
		tr := NewTracer()
		tr.Span(LayerSSD, "q", "R", 0, 1, Attr{Key: "v", Value: v})
		if err := tr.WriteChromeJSON(io.Discard); err == nil {
			t.Errorf("value %T %v exported without an error", v, v)
		}
		if err := writeChromeJSONRef(tr, io.Discard); err == nil {
			t.Errorf("reference exported %T %v without an error", v, v)
		}
	}
}
