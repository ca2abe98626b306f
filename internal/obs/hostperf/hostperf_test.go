package hostperf

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// alloc burns n small heap allocations.
//
//go:noinline
func alloc(n int) {
	for i := 0; i < n; i++ {
		s := make([]byte, 64)
		sink = s
	}
}

var sink []byte

func TestCollectorPhasesAndSummary(t *testing.T) {
	c := NewCollector()
	end := c.Phase("work")
	alloc(3000)
	end()
	s := c.Summary()
	if s.Total.AllocObjs < 3000 {
		t.Errorf("total allocs %d, want >= 3000", s.Total.AllocObjs)
	}
	if len(s.Phases) != 1 || s.Phases[0].Name != "work" {
		t.Fatalf("phases = %+v, want one named 'work'", s.Phases)
	}
	if s.Phases[0].AllocObjs < 3000 {
		t.Errorf("phase allocs %d, want >= 3000", s.Phases[0].AllocObjs)
	}
	if s.Phases[0].Wall <= 0 {
		t.Errorf("phase wall time %v, want > 0", s.Phases[0].Wall)
	}
	if s.Total.AllocObjs < s.Phases[0].AllocObjs {
		t.Errorf("total allocs %d below its only phase's %d", s.Total.AllocObjs, s.Phases[0].AllocObjs)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	end := c.Phase("anything")
	end() // must not panic
	if s := c.Summary(); s != nil {
		t.Errorf("nil collector summary = %v, want nil", s)
	}
}

func TestSummaryOutputs(t *testing.T) {
	c := NewCollector()
	end := c.Phase("p1")
	alloc(10)
	end()
	s := c.Summary()

	table := s.FormatTable()
	for _, want := range []string{"phase", "allocs", "p1", "total"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "subsystem") {
		t.Errorf("table still carries a subsystem section:\n%s", table)
	}

	var jbuf bytes.Buffer
	if err := s.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var round Summary
	if err := json.Unmarshal(jbuf.Bytes(), &round); err != nil {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
	if round.Total.AllocObjs != s.Total.AllocObjs {
		t.Errorf("round-tripped total %d != %d", round.Total.AllocObjs, s.Total.AllocObjs)
	}

	var cbuf bytes.Buffer
	if err := s.WriteCSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cbuf.String()), "\n")
	// Header + one phase + total.
	want := 1 + len(s.Phases) + 1
	if len(lines) != want {
		t.Errorf("CSV has %d lines, want %d:\n%s", len(lines), want, cbuf.String())
	}
	if !strings.HasPrefix(lines[0], "section,name,wall_ns") {
		t.Errorf("CSV header wrong: %q", lines[0])
	}
}
