package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"oocnvm/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

func buildGoldenTracer() *Tracer {
	tr := NewTracer()
	tr.Span(LayerSSD, "queue", "R", 0, 10*sim.Microsecond,
		Attr{Key: "offset", Value: int64(0)}, Attr{Key: "size", Value: int64(65536)})
	tr.Span(LayerNVM, "ch00/die00", "sense", 1*sim.Microsecond, 6*sim.Microsecond)
	tr.Span(LayerNVM, "ch00/bus", "xfer", 6*sim.Microsecond, 7*sim.Microsecond)
	tr.Span(LayerNVM, "ch00/die00", "stage", 6*sim.Microsecond, 6500*sim.Nanosecond)
	tr.Span(LayerInterconnect, "PCIe2.0 x8 (bridged)", "xfer", 7*sim.Microsecond, 9*sim.Microsecond)
	tr.Span(LayerSSD, "queue", "W", 10*sim.Microsecond, 25*sim.Microsecond)
	return tr
}

// TestChromeTraceGolden pins the exact Chrome trace_event bytes the tracer
// emits for a fixed span population. Regenerate with `go test
// ./internal/obs -run Golden -update` after an intentional format change.
func TestChromeTraceGolden(t *testing.T) {
	var b bytes.Buffer
	if err := buildGoldenTracer().WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *update {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("chrome trace diverged from golden file (run with -update if intentional)\ngot:\n%s", b.String())
	}
}

// TestChromeTraceStructure validates the trace_event fields Chrome/Perfetto
// actually parse: every span is a complete event (ph "X") with microsecond
// ts/dur, and every pid/tid used is named by a metadata event.
func TestChromeTraceStructure(t *testing.T) {
	var b bytes.Buffer
	if err := buildGoldenTracer().WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	named := make(map[[2]int]bool)
	var spans int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" || ev.Name == "thread_name" {
				if ev.Args["name"] == "" {
					t.Fatalf("metadata event without a name: %+v", ev)
				}
				named[[2]int{ev.Pid, ev.Tid}] = true
			}
		case "X":
			spans++
			if ev.Dur == nil || *ev.Dur < 0 || ev.Ts < 0 {
				t.Fatalf("span with bad ts/dur: %+v", ev)
			}
			if !named[[2]int{ev.Pid, 0}] {
				t.Fatalf("span on unnamed process %d", ev.Pid)
			}
			if !named[[2]int{ev.Pid, ev.Tid}] {
				t.Fatalf("span on unnamed thread %d/%d", ev.Pid, ev.Tid)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != 6 {
		t.Fatalf("spans = %d, want 6", spans)
	}
	// 10 µs span → ts 10 dur 15 on the second queue event; spot-check the
	// unit conversion ps → µs.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "W" {
			if ev.Ts != 10 || *ev.Dur != 15 {
				t.Fatalf("W span ts/dur = %v/%v, want 10/15 µs", ev.Ts, *ev.Dur)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("W span missing")
	}
}

func TestTracerLimitCountsDrops(t *testing.T) {
	tr := NewTracer()
	tr.SetLimit(2)
	for i := 0; i < 5; i++ {
		tr.Span(LayerSSD, "q", "R", sim.Time(i), sim.Time(i+1))
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	var b bytes.Buffer
	if err := tr.WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b.Bytes(), []byte("tracer_dropped_events")) {
		t.Fatal("dropped-events marker missing from export")
	}
}

// TestTracerConcurrentCap records from several goroutines into a capped
// tracer while another exports it: every span is either stored or counted
// as dropped, and an export mid-recording reads only complete spans.
func TestTracerConcurrentCap(t *testing.T) {
	const writers, each, limit = 4, 3000, 5000
	tr := NewTracer()
	tr.SetLimit(limit)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Span(LayerNVM, "ch00/die00", "sense", sim.Time(i), sim.Time(i+1), Attr{Key: "w", Value: w})
			}
		}()
	}
	for tr.Len() < limit {
		if err := tr.WriteChromeJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if tr.Len() != limit || tr.Dropped() != writers*each-limit {
		t.Fatalf("len=%d dropped=%d, want %d and %d", tr.Len(), tr.Dropped(), limit, writers*each-limit)
	}
}

func TestTracerNegativeDurationClamped(t *testing.T) {
	tr := NewTracer()
	tr.Span(LayerSSD, "q", "R", 10, 5)
	var b bytes.Buffer
	if err := tr.WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string   `json:"ph"`
			Dur *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && *ev.Dur != 0 {
			t.Fatalf("negative span not clamped: dur=%v", *ev.Dur)
		}
	}
}

func TestEmptyTracerExportsValidJSON(t *testing.T) {
	var b bytes.Buffer
	if err := NewTracer().WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatalf("traceEvents not an array: %v", doc["traceEvents"])
	}
}

// TestTracerSpanSteadyStateAllocs pins span recording at zero allocations
// once the chunked store has grown: each pass empties the store but keeps
// its chunks. (Attrs are left off; a caller's variadic attribute slice is
// the caller's allocation.)
func TestTracerSpanSteadyStateAllocs(t *testing.T) {
	tr := NewTracer()
	allocs := testing.AllocsPerRun(100, func() {
		tr.n = 0
		tr.dropped.Store(0)
		for i := sim.Time(0); i < 256; i++ {
			tr.Span(LayerNVM, "ch00/die00", "sense", i, i+1)
		}
	})
	if allocs != 0 {
		t.Errorf("Span into a warm tracer allocates %v objects per 256 spans, want 0", allocs)
	}
}

// SetLimit rebounds the event cap. Zero or negative means unlimited.
func (t *Tracer) SetLimit(n int) {
	t.mu.Lock()
	t.limit = n
	t.full.Store(n > 0 && t.n >= n)
	t.mu.Unlock()
}
