package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"oocnvm/internal/sim"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Add(2)
	c.Inc()
	if r.Counter("a") != c || c.Value() != 3 {
		t.Fatalf("counter identity/value broken: %d", c.Value())
	}
	g := r.Gauge("b")
	g.Set(1.5)
	if r.Gauge("b").Value() != 1.5 {
		t.Fatal("gauge identity broken")
	}
	h := r.Histogram("c")
	h.Observe(sim.Microsecond)
	if r.Histogram("c").Count() != 1 {
		t.Fatal("histogram identity broken")
	}
}

func TestSnapshotSortedAndDeterministic(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		r.Counter("z.ops").Add(9)
		r.Counter("a.ops").Add(1)
		r.Gauge("m.bw").Set(3.25)
		r.Histogram("k.lat").Observe(5 * sim.Microsecond)
		r.Histogram("b.lat").Observe(2 * sim.Microsecond)
		return r
	}
	s := mk().Snapshot()
	if s.Counters[0].Name != "a.ops" || s.Counters[1].Name != "z.ops" {
		t.Fatalf("counters unsorted: %+v", s.Counters)
	}
	if s.Histograms[0].Name != "b.lat" || s.Histograms[1].Name != "k.lat" {
		t.Fatalf("histograms unsorted: %+v", s.Histograms)
	}

	var j1, j2 bytes.Buffer
	if err := mk().WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Fatal("JSON export not deterministic")
	}
	var back Snapshot
	if err := json.Unmarshal(j1.Bytes(), &back); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(back.Counters) != 2 || len(back.Gauges) != 1 || len(back.Histograms) != 2 {
		t.Fatalf("round trip lost metrics: %+v", back)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRegistry()
	r.Counter("n.reads").Add(7)
	r.Gauge("n.bw").Set(2.5)
	r.Histogram("n.lat").Observe(3 * sim.Microsecond)
	var b bytes.Buffer
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d: %q", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "kind,name,") {
		t.Fatalf("missing header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "counter,n.reads,7,") {
		t.Fatalf("counter row: %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "histogram,n.lat,,1,") {
		t.Fatalf("histogram row: %q", lines[3])
	}
}

func TestAbsorbCountersAndGauges(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x").Add(1)
	b.Counter("x").Add(2)
	b.Counter("y").Add(5)
	b.Gauge("g").Set(4)
	a.Absorb(b)
	if a.Counter("x").Value() != 3 || a.Counter("y").Value() != 5 {
		t.Fatalf("counters not merged: x=%d y=%d", a.Counter("x").Value(), a.Counter("y").Value())
	}
	if a.Gauge("g").Value() != 4 {
		t.Fatal("gauge not copied")
	}
	// Self/nil absorbs are no-ops.
	a.Absorb(a)
	a.Absorb(nil)
	if a.Counter("x").Value() != 3 {
		t.Fatal("self-absorb doubled counters")
	}
}

func TestFormatStageTable(t *testing.T) {
	r := NewRegistry()
	if got := FormatStageTable(r.Snapshot()); got != "" {
		t.Fatalf("empty registry table = %q", got)
	}
	r.Histogram("ssd.request.latency").Observe(8 * sim.Microsecond)
	out := FormatStageTable(r.Snapshot())
	if !strings.Contains(out, "ssd.request.latency") || !strings.Contains(out, "p95") {
		t.Fatalf("table missing fields:\n%s", out)
	}
}
