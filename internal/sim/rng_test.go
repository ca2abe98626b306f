package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws from different seeds", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGFloat64Uniformish(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean of %d uniform draws = %v, want ~0.5", n, mean)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) produced only %d distinct values in 1000 draws", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(-1) did not panic")
		}
	}()
	NewRNG(1).Int63n(-1)
}

func TestRNGBoolEdges(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) hit rate %v", frac)
	}
}

// Property: Int63n stays in range for arbitrary positive bounds.
func TestRNGInt63nRangeProperty(t *testing.T) {
	r := NewRNG(99)
	f := func(bound uint32) bool {
		n := int64(bound%1_000_000) + 1
		v := r.Int63n(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(-3) did not panic")
		}
	}()
	NewRNG(1).Intn(-3)
}

func TestRNGInt63nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(0) did not panic")
		}
	}()
	NewRNG(1).Int63n(0)
}

// Streams from nearby seeds must not be shifted copies of each other: the
// draws of seed s must not reappear anywhere in a window of seed s+1's
// stream. SplitMix64's output mixing is what guarantees this; a plain LCG
// would fail.
func TestRNGStreamIndependenceAcrossSeeds(t *testing.T) {
	const window = 256
	for seed := uint64(0); seed < 8; seed++ {
		a := NewRNG(seed)
		ref := make(map[uint64]bool, window)
		for i := 0; i < window; i++ {
			ref[a.Uint64()] = true
		}
		b := NewRNG(seed + 1)
		hits := 0
		for i := 0; i < window; i++ {
			if ref[b.Uint64()] {
				hits++
			}
		}
		if hits > 0 {
			t.Fatalf("seed %d and %d share %d values in a %d-draw window", seed, seed+1, hits, window)
		}
	}
}

// Bool(p) with p <= 0 must not consume stream state, so gating a feature on
// probability zero cannot perturb downstream draws (the zero-fault-profile
// bit-reproducibility guarantee leans on this).
func TestRNGBoolZeroDrawsNothing(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		a.Bool(0)
		a.Bool(-1)
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("Bool(<=0) consumed RNG state")
	}
}
