package nvm

import "testing"

func TestBusLadderMonotone(t *testing.T) {
	ladder := BusLadder()
	if len(ladder) < 4 {
		t.Fatalf("ladder has %d rungs", len(ladder))
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].BytesPerSec() <= ladder[i-1].BytesPerSec() {
			t.Fatalf("rung %s (%v B/s) not faster than %s (%v B/s)",
				ladder[i].Name, ladder[i].BytesPerSec(),
				ladder[i-1].Name, ladder[i-1].BytesPerSec())
		}
	}
	// The paper's anchors sit on the ladder.
	names := map[string]bool{}
	for _, b := range ladder {
		names[b.Name] = true
	}
	if !names[ONFi3SDR().Name] || !names[FutureDDR().Name] {
		t.Fatal("ladder missing the paper's anchor buses")
	}
}

func TestLifetimeKnownValue(t *testing.T) {
	// 1 TiB of SLC (100k cycles) absorbing 1 TiB/day at WA 1:
	// 100000 device-fills / 365 per year ≈ 274 years.
	cell := Params(SLC)
	years, err := Lifetime(cell, 1<<40, 1<<40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if years < 273 || years > 275 {
		t.Fatalf("lifetime = %v years, want ~274", years)
	}
}

func TestLifetimeOrderingAcrossMedia(t *testing.T) {
	// Same capacity and workload: PCM >> SLC > MLC > TLC.
	var last float64 = 1e300
	for _, c := range []CellType{PCM, SLC, MLC, TLC} {
		years, err := Lifetime(Params(c), 1<<40, 10<<40, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if years >= last {
			t.Fatalf("%v lifetime %v not below the previous medium's %v", c, years, last)
		}
		last = years
	}
}

func TestLifetimeWriteAmplificationHurts(t *testing.T) {
	cell := Params(MLC)
	clean, _ := Lifetime(cell, 1<<40, 1<<40, 1)
	amplified, _ := Lifetime(cell, 1<<40, 1<<40, 3)
	if amplified*2.9 > clean {
		t.Fatalf("WA 3 lifetime %v vs WA 1 %v; want ~3x shorter", amplified, clean)
	}
}

func TestLifetimeValidation(t *testing.T) {
	cell := Params(SLC)
	if _, err := Lifetime(cell, 0, 1, 1); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := Lifetime(cell, 1, 0, 1); err == nil {
		t.Fatal("zero writes accepted")
	}
	if _, err := Lifetime(cell, 1, 1, 0.5); err == nil {
		t.Fatal("write amplification below 1 accepted")
	}
}
